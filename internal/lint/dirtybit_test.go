package lint

import "testing"

func TestDirtyBit(t *testing.T) {
	// Fixture protocol package with a protected dirty bit, a protected
	// influence vector, and their accessors.
	proto := `package proto

type Proc struct {
	dirty     bool
	Exposed   bool
	influence map[int]uint64
}

func New() *Proc { return &Proc{influence: map[int]uint64{}} }

func (p *Proc) SetDirty(v bool) { p.dirty = v }

func (p *Proc) restore(v map[int]uint64) {
	p.influence = v
}
`
	rules := []DirtyBitRule{
		{Pkg: "example.com/proto", Type: "Proc", Field: "dirty",
			Writers: map[string]bool{"example.com/proto.SetDirty": true}},
		{Pkg: "example.com/proto", Type: "Proc", Field: "Exposed",
			Writers: map[string]bool{"example.com/proto.SetDirty": true}},
		{Pkg: "example.com/proto", Type: "Proc", Field: "influence",
			Writers:      map[string]bool{"example.com/proto.restore": true},
			Constructors: map[string]bool{"example.com/proto.New": true}},
	}
	a := &DirtyBit{Rules: rules}

	cases := []struct {
		name string
		pkgs map[string]map[string]string
		want []struct {
			line int
			rule string
			msg  string
		}
	}{
		{
			name: "write outside the accessor fires even inside the package",
			pkgs: map[string]map[string]string{
				"example.com/proto": {"proto.go": proto, "bad.go": `package proto

func (p *Proc) Reset() {
	p.dirty = false
	p.dirty = true
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{4, "dirtybit", "proto.Proc.dirty"},
				{5, "dirtybit", "proto.Proc.dirty"},
			},
		},
		{
			name: "cross-package write to exported protocol state fires",
			pkgs: map[string]map[string]string{
				"example.com/proto": {"proto.go": proto},
				"example.com/user": {"user.go": `package user

import "example.com/proto"

func Clobber(p *proto.Proc) {
	p.Exposed = true
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{{6, "dirtybit", "proto.Proc.Exposed"}},
		},
		{
			name: "indexed element write to a protected map fires",
			pkgs: map[string]map[string]string{
				"example.com/proto": {"proto.go": proto, "bad.go": `package proto

func (p *Proc) Bump(c int) {
	p.influence[c]++
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{{4, "dirtybit", "proto.Proc.influence"}},
		},
		{
			name: "accessor and allowed writers are silent",
			pkgs: map[string]map[string]string{
				"example.com/proto": {"proto.go": proto},
				"example.com/user": {"user.go": `package user

import "example.com/proto"

func Flow(p *proto.Proc) {
	p.SetDirty(true)
	p.SetDirty(false)
}
`}},
		},
		{
			name: "unprotected fields and other types stay writable",
			pkgs: map[string]map[string]string{
				"example.com/proto": {"proto.go": proto, "ok.go": `package proto

type Other struct{ dirty bool }

func (o *Other) Flip() { o.dirty = !o.dirty }
`}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, a, tc.pkgs), tc.want)
		})
	}
}

func TestDirtyLiteral(t *testing.T) {
	// Fixture checkpoint package: Dirty is lifecycle state only Decode may
	// establish from scratch; Clone copies it field-for-field.
	ckSrc := `package ck

type Checkpoint struct {
	Dirty bool
	Ndc   uint64
}

func Decode(b []byte) Checkpoint {
	return Checkpoint{Dirty: b[0] == 1}
}

func Clone(c Checkpoint) Checkpoint {
	return Checkpoint{Dirty: c.Dirty, Ndc: c.Ndc}
}
`
	a := &DirtyBit{Rules: []DirtyBitRule{
		{Pkg: "example.com/ck", Type: "Checkpoint", Field: "Dirty",
			Writers: map[string]bool{"example.com/ck.Decode": true}},
	}}

	withUser := func(src string) map[string]map[string]string {
		return map[string]map[string]string{
			"example.com/ck":   {"ck.go": ckSrc},
			"example.com/user": {"user.go": src},
		}
	}

	cases := []struct {
		name string
		pkgs map[string]map[string]string
		want []struct {
			line int
			rule string
			msg  string
		}
	}{
		{
			name: "literal minting the protected field outside its writers fires",
			pkgs: withUser(`package user

import "example.com/ck"

func Forge() ck.Checkpoint {
	return ck.Checkpoint{
		Dirty: true,
		Ndc:   7,
	}
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{7, "dirtybit", "ck.Checkpoint.Dirty"}},
		},
		{
			name: "in-package literal outside the writer set fires too",
			pkgs: map[string]map[string]string{
				"example.com/ck": {"ck.go": ckSrc, "bad.go": `package ck

func blank() Checkpoint {
	return Checkpoint{Dirty: false}
}
`},
			},
			want: []struct {
				line int
				rule string
				msg  string
			}{{4, "dirtybit", "ck.Checkpoint.Dirty"}},
		},
		{
			name: "allowed writer, same-field copy and unprotected fields are silent",
			pkgs: withUser(`package user

import "example.com/ck"

func Snapshot(c ck.Checkpoint) ck.Checkpoint {
	clean := ck.Checkpoint{Ndc: c.Ndc}
	copied := ck.Checkpoint{Dirty: c.Dirty}
	_ = clean
	return copied
}
`),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, a, tc.pkgs), tc.want)
		})
	}
}

func TestHelperMut(t *testing.T) {
	// Fixture vector package: Merge mutates dst, Relay forwards to Merge
	// (the fixed-point case), Drop uses the delete builtin, Clone only reads.
	vecSrc := `package vec

func Merge(dst, src map[int]uint64) {
	for k, v := range src {
		if v > dst[k] {
			dst[k] = v
		}
	}
}

func Relay(dst, src map[int]uint64) {
	Merge(dst, src)
}

func Drop(m map[int]uint64, k int) {
	delete(m, k)
}

func Clone(v map[int]uint64) map[int]uint64 {
	out := make(map[int]uint64, len(v))
	for k, x := range v {
		out[k] = x
	}
	return out
}
`
	// Fixture process package: valid is guarded; Accept is its one
	// helper-mediated writer.
	procSrc := `package proc

import "example.com/vec"

type Proc struct {
	valid map[int]uint64
}

func (p *Proc) Accept(src map[int]uint64) {
	vec.Merge(p.valid, src)
}
`
	a := &DirtyBit{Rules: []DirtyBitRule{
		{Pkg: "example.com/proc", Type: "Proc", Field: "valid",
			HelperCallers: map[string]bool{"example.com/proc.Accept": true}},
	}}

	withBad := func(src string) map[string]map[string]string {
		return map[string]map[string]string{
			"example.com/vec":  {"vec.go": vecSrc},
			"example.com/proc": {"proc.go": procSrc, "bad.go": src},
		}
	}

	cases := []struct {
		name string
		pkgs map[string]map[string]string
		want []struct {
			line int
			rule string
			msg  string
		}
	}{
		{
			name: "guarded field passed to a cross-package mutating helper fires",
			pkgs: withBad(`package proc

import "example.com/vec"

func (p *Proc) Leak(src map[int]uint64) {
	vec.Merge(p.valid, src)
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{{6, "dirtybit", "proc.Proc.valid is guarded state passed into Merge"}},
		},
		{
			name: "forwarding helpers and builtins are summarized transitively",
			pkgs: withBad(`package proc

import "example.com/vec"

func (p *Proc) Forward(src map[int]uint64) {
	vec.Relay(p.valid, src)
	vec.Drop(p.valid, 3)
}
`),
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{6, "dirtybit", "passed into Relay"},
				{7, "dirtybit", "passed into Drop"},
			},
		},
		{
			name: "read-only helpers, non-mutating positions and the allowed writer are silent",
			pkgs: withBad(`package proc

import "example.com/vec"

func (p *Proc) Observe(src map[int]uint64) map[int]uint64 {
	out := vec.Clone(p.valid)
	vec.Merge(out, p.valid)
	return out
}
`),
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, a, tc.pkgs), tc.want)
		})
	}
}
