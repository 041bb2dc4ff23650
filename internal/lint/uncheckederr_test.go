package lint

import "testing"

func TestUncheckedErr(t *testing.T) {
	a := NewUncheckedErr()
	codec := `package codec

type Conn struct{}

func (Conn) Send(b []byte) error { return nil }

func Encode(v int) ([]byte, error) { return nil, nil }

func Decode(b []byte) (int, error) { return 0, nil }

func Fire() {}
`
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
			name: "expression-statement discards fire",
			pkgs: map[string]map[string]string{
				"example.com/codec": {"codec.go": codec, "bad.go": `package codec

func Use(c Conn) {
	c.Send(nil)
	go c.Send(nil)
	defer c.Send(nil)
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{4, "uncheckederr", "error result of Send discarded"},
				{5, "uncheckederr", "error result of Send discarded"},
				{6, "uncheckederr", "error result of Send discarded"},
			},
		},
		{
			name: "blank-assigned error fires",
			pkgs: map[string]map[string]string{
				"example.com/codec": {"codec.go": codec, "bad.go": `package codec

func Use() int {
	_, _ = Encode(1)
	v, _ := Decode(nil)
	return v
}
`}},
			want: []struct {
				line int
				rule string
				msg  string
			}{
				{4, "uncheckederr", "error result of Encode assigned to blank"},
				{5, "uncheckederr", "error result of Decode assigned to blank"},
			},
		},
		{
			name: "checked errors are silent",
			pkgs: map[string]map[string]string{
				"example.com/codec": {"codec.go": codec, "ok.go": `package codec

func Use(c Conn) error {
	if err := c.Send(nil); err != nil {
		return err
	}
	buf, err := Encode(1)
	if err != nil {
		return err
	}
	_, err = Decode(buf)
	return err
}
`}},
		},
		{
			name: "watched name without an error result is silent",
			pkgs: map[string]map[string]string{
				"example.com/codec": {"codec.go": codec, "ok.go": `package codec

type Sink struct{}

func (Sink) Send(v int) {}

func Use(s Sink) {
	s.Send(1)
	Fire()
}
`}},
		},
		{
			name: "unwatched names are silent",
			pkgs: map[string]map[string]string{
				"example.com/codec": {"codec.go": codec, "ok.go": `package codec

func helper() error { return nil }

func Use() {
	helper()
}
`}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			wantFindings(t, runFixture(t, a, tc.pkgs), tc.want)
		})
	}
}
