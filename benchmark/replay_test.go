package benchmark

import (
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"testing"
	"time"

	"github.com/synergy-ft/synergy/internal/checkpoint"
	"github.com/synergy-ft/synergy/internal/coord"
	"github.com/synergy-ft/synergy/internal/eventq"
	"github.com/synergy-ft/synergy/internal/gossip"
	"github.com/synergy-ft/synergy/internal/msg"
	"github.com/synergy-ft/synergy/internal/obs"
	"github.com/synergy-ft/synergy/internal/sim"
	"github.com/synergy-ft/synergy/internal/storage"
	"github.com/synergy-ft/synergy/internal/trace"
	"github.com/synergy-ft/synergy/internal/vtime"
)

// The layer replay times isolated calls into each layer's hot functions on
// inputs generated from the run's seed. It is the part of the per-layer
// budget that does not depend on which workload ran, so a traced run of any
// workload reports it.

// perOp runs fn iters times per batch and returns the median batch's
// nanoseconds per call: medians shrug off a batch that lost its CPU.
func perOp(batches, iters int, fn func()) float64 {
	ns := make([]float64, batches)
	for b := range ns {
		t0 := time.Now()
		for i := 0; i < iters; i++ {
			fn()
		}
		ns[b] = float64(time.Since(t0)) / float64(iters)
	}
	return Median(ns)
}

// replayMessage generates one application message.
func replayMessage(rng *rand.Rand) msg.Message {
	return msg.Message{
		Kind: msg.Internal, From: msg.P2, To: msg.P1Act,
		SN: uint64(rng.Int63n(1 << 40)), ChanSeq: uint64(rng.Int63n(1 << 40)),
		DirtyBit: rng.Intn(2) == 0, Ndc: uint64(rng.Int63n(1 << 20)), ValidSN: uint64(rng.Int63n(1 << 40)),
		Payload: msg.Payload{Seq: uint64(rng.Int63n(1 << 40)), Value: rng.Int63() - 1<<62, Digest: rng.Uint64()},
	}
}

// replayCheckpoint generates a realistic stable checkpoint: a process an
// hour into a run with 64 messages still unacknowledged.
func replayCheckpoint(rng *rand.Rand) *checkpoint.Checkpoint {
	c := checkpoint.New(checkpoint.Stable, msg.P2)
	c.TakenAt = vtime.Time(rng.Int63n(int64(time.Hour)))
	c.Ndc = uint64(rng.Int63n(1 << 20))
	c.MsgSN = uint64(rng.Int63n(1 << 40))
	c.State.Step, c.State.Acc, c.State.Hash = c.MsgSN, rng.Int63(), rng.Uint64()
	for _, p := range []msg.ProcID{msg.P1Act, msg.P1Sdw} {
		c.SentTo[p] = uint64(rng.Int63n(1 << 32))
		c.RecvFrom[p] = uint64(rng.Int63n(1 << 32))
		c.ValidSN[p] = uint64(rng.Int63n(1 << 32))
	}
	for i := 0; i < 64; i++ {
		c.Unacked = append(c.Unacked, replayMessage(rng))
	}
	return c
}

// commitRound drives one round of the stable-write lifecycle the TB
// checkpointer drives: Begin, an in-blocking Replace, Commit.
func commitRound(s *storage.Stable, c *checkpoint.Checkpoint, round uint64) error {
	c.State.Step = round
	if err := s.Begin(c); err != nil {
		return err
	}
	c.State.Step = round + 1
	if err := s.Replace(c); err != nil {
		return err
	}
	return s.Commit(round)
}

// memGossip is a deterministic in-memory gossip transport: Send enqueues,
// drain delivers in FIFO order.
type memGossip struct {
	nodes map[gossip.NodeID]*gossip.Node
	queue []memPacket
}

type memPacket struct {
	to gossip.NodeID
	p  gossip.Packet
}

func (g *memGossip) Send(to gossip.NodeID, p gossip.Packet) {
	g.queue = append(g.queue, memPacket{to, p})
}

func (g *memGossip) drain() {
	for len(g.queue) > 0 {
		e := g.queue[0]
		g.queue = g.queue[1:]
		g.nodes[e.to].Handle(e.p)
	}
}

// replayLayers fills r.layer with the replay's numbers.
func (r *run) replayLayers() error {
	s0 := r.clk.ns()
	defer func() { r.spans.Add("replay", 0, s0, r.clk.ns(), "") }()
	rng := rand.New(rand.NewSource(r.seed))
	l := r.layer
	batches, scale := 5, 1
	if r.small {
		batches, scale = 3, 10
	}

	// msg codec.
	m := replayMessage(rng)
	buf := make([]byte, 0, msg.EncodedSize)
	l["msg.encode_ns"] = perOp(batches, 200000/scale, func() { buf = msg.Encode(buf[:0], m) })
	var decErr error
	l["msg.decode_ns"] = perOp(batches, 200000/scale, func() { _, _, decErr = msg.Decode(buf) })
	if decErr != nil {
		return fmt.Errorf("replay msg.Decode: %w", decErr)
	}
	l["msg.encode_allocs"] = testing.AllocsPerRun(1000, func() { buf = msg.Encode(buf[:0], m) })

	// checkpoint codec.
	cp := replayCheckpoint(rng)
	enc := checkpoint.Encode(cp)
	l["checkpoint.bytes"] = float64(len(enc))
	l["checkpoint.encode_us"] = perOp(batches, 2000/scale, func() { enc = checkpoint.AppendEncode(enc[:0], cp) }) / 1e3
	l["checkpoint.decode_us"] = perOp(batches, 2000/scale, func() { _, decErr = checkpoint.Decode(enc) }) / 1e3
	if decErr != nil {
		return fmt.Errorf("replay checkpoint.Decode: %w", decErr)
	}
	var clone *checkpoint.Checkpoint
	l["checkpoint.clone_us"] = perOp(batches, 2000/scale, func() { clone = cp.Clone() }) / 1e3
	_ = clone
	l["storage.bytes_per_round"] = float64(len(storage.AppendRecord(nil, storage.Record{Round: 1, Data: enc})))

	// storage: the stable-write lifecycle in memory, on one file, and on
	// three files at once (three nodes commit on the same tick).
	if err := r.replayStorage(cp, batches, scale); err != nil {
		return err
	}

	// gossip: one update to full coverage of 64 in-memory members.
	net := &memGossip{nodes: make(map[gossip.NodeID]*gossip.Node)}
	members := make([]gossip.NodeID, 64)
	for i := range members {
		members[i] = gossip.NodeID(i)
	}
	delivered := 0
	nodes := make([]*gossip.Node, len(members))
	for i, id := range members {
		nodes[i] = gossip.New(gossip.Config{ID: id, Members: members, Seed: r.seed, Transport: net,
			Deliver: func(gossip.Update) { delivered++ }})
		net.nodes[id] = nodes[i]
	}
	payload := make([]byte, 24)
	i := 0
	l["gossip.disseminate_us_n64"] = perOp(batches, 30/scale+1, func() {
		before := delivered
		nodes[i%len(nodes)].Broadcast(1, payload)
		i++
		net.drain()
		for delivered-before < len(nodes)-1 {
			for _, nd := range nodes {
				nd.Tick()
			}
			net.drain()
		}
	}) / 1e3
	pkt := gossip.Packet{Kind: gossip.PacketPush, From: 3, TTL: 6}
	for i := 0; i < 4; i++ {
		pkt.Updates = append(pkt.Updates, gossip.Update{Origin: gossip.NodeID(i), Seq: uint64(rng.Int63n(1 << 30)), Kind: 1, Payload: payload})
	}
	var gbuf []byte
	l["gossip.encode_ns"] = perOp(batches, 100000/scale, func() { gbuf = gossip.EncodePacket(gbuf[:0], pkt) })
	l["gossip.decode_ns"] = perOp(batches, 100000/scale, func() { _, decErr = gossip.DecodePacket(gbuf) })
	if decErr != nil {
		return fmt.Errorf("replay gossip.DecodePacket: %w", decErr)
	}

	// simulator cores.
	var q eventq.Queue
	for i := 0; i < 1024; i++ {
		q.Push(vtime.Time(rng.Int63n(1<<40)), nil)
	}
	l["eventq.pushpop_ns"] = perOp(batches, 200000/scale, func() {
		at, _, _ := q.Pop()
		q.Push(at+vtime.Time(rng.Int63n(1<<20)), nil)
	})
	const chain = 200000
	l["sim.event_ns"] = perOp(batches, 1, func() {
		e := sim.New(r.seed)
		n := 0
		var tick func()
		tick = func() {
			if n++; n < chain/scale {
				e.After(time.Millisecond, tick)
			}
		}
		e.After(0, tick)
		e.Run()
	}) / float64(chain/scale)
	var steps uint64
	minute := perOp(batches, 1, func() {
		sys, err := coord.NewSystem(coord.DefaultConfig(coord.Coordinated, r.seed))
		if err != nil {
			decErr = err
			return
		}
		sys.Start()
		sys.RunFor(60)
		steps = sys.Engine().Steps()
	})
	if decErr != nil {
		return fmt.Errorf("replay coord.NewSystem: %w", decErr)
	}
	l["coord.sim_minute_ms"] = minute / 1e6
	l["coord.steps_per_s"] = float64(steps) / (minute / 1e9)

	// obs and trace: what instrumentation costs the paths that carry it.
	h := obs.NewRegistry().Histogram("replay_seconds", "replay", obs.ExpBuckets(2e-5, 2, 18))
	l["obs.hist_observe_ns"] = perOp(batches, 200000/scale, func() { h.Observe(0.0013) })
	rec := trace.New()
	rec.SetCapacity(1 << 16)
	ev := trace.Event{At: 1, Proc: msg.P2, Kind: trace.MsgSent, Msg: m}
	l["trace.record_ns"] = perOp(batches, 200000/scale, func() { rec.Record(ev) })
	return nil
}

// replayStorage times the storage layer's commit, reopen and truncate paths.
func (r *run) replayStorage(cp *checkpoint.Checkpoint, batches, scale int) error {
	dir, err := os.MkdirTemp(r.tmp, "replay-*")
	if err != nil {
		return err
	}
	l := r.layer
	var opErr error
	fail := func(err error) {
		if err != nil && opErr == nil {
			opErr = err
		}
	}

	var mem storage.Stable
	mem.SetRetention(8)
	round := uint64(0)
	l["storage.commit_mem_us"] = perOp(batches, 2000/scale, func() { round++; fail(commitRound(&mem, cp.Clone(), round)) }) / 1e3

	reg := obs.NewRegistry()
	open := func(name string) (*storage.Stable, *storage.FileBackend, error) {
		fb, _, err := storage.OpenFile(filepath.Join(dir, name))
		if err != nil {
			return nil, nil, err
		}
		fb.Obs = storage.NewFileObs(reg)
		s := &storage.Stable{}
		s.SetRetention(8)
		s.SetBackend(fb)
		return s, fb, nil
	}
	one, fb, err := open("one.stable")
	if err != nil {
		return err
	}
	round = 0
	l["storage.commit_file_us"] = perOp(batches, 60/scale+1, func() { round++; fail(commitRound(one, cp.Clone(), round)) }) / 1e3
	if l["storage.fsync_us"] == 0 {
		l["storage.fsync_us"] = HistOf(reg.Snapshot(), "synergy_storage_fsync_seconds", "").Mean() * 1e6
	}

	// Truncate: two rounds land above the line, then recovery discards them.
	var truncUs []float64
	for i := 0; i < 20/scale+1; i++ {
		line := round
		for k := 0; k < 2; k++ {
			round++
			fail(commitRound(one, cp.Clone(), round))
		}
		t0 := time.Now()
		fail(one.TruncateAbove(line))
		truncUs = append(truncUs, float64(time.Since(t0))/1e3)
		round = line
	}
	l["storage.truncate_us"] = Median(truncUs)
	fail(fb.Close())

	// Reopen: what a restarting node pays to read an 8-round log back.
	var openUs []float64
	for i := 0; i < 40/scale+1; i++ {
		t0 := time.Now()
		b, info, err := storage.OpenFile(filepath.Join(dir, "one.stable"))
		openUs = append(openUs, float64(time.Since(t0))/1e3)
		if err != nil {
			return err
		}
		if len(info.Records) == 0 || info.TailDamaged {
			fail(fmt.Errorf("replay reopen: %d records, tail damaged %v", len(info.Records), info.TailDamaged))
		}
		fail(b.Close())
	}
	l["storage.open_recover_us"] = Median(openUs)

	// Three backends committing on the same tick, as three nodes do.
	var stables [3]*storage.Stable
	var backends [3]*storage.FileBackend
	for i := range stables {
		if stables[i], backends[i], err = open(fmt.Sprintf("x3-%d.stable", i)); err != nil {
			return err
		}
	}
	var mu sync.Mutex
	var x3 []float64
	for n := uint64(1); n <= uint64(150/scale+1); n++ {
		var wg sync.WaitGroup
		for i := range stables {
			wg.Add(1)
			go func(s *storage.Stable) {
				defer wg.Done()
				t0 := time.Now()
				err := commitRound(s, cp.Clone(), n)
				us := float64(time.Since(t0)) / 1e3
				mu.Lock()
				fail(err)
				x3 = append(x3, us)
				mu.Unlock()
			}(stables[i])
		}
		wg.Wait()
	}
	sort.Float64s(x3)
	l["storage.commit_file_x3_us"] = Percentile(x3, 50)
	for _, b := range backends {
		fail(b.Close())
	}
	if opErr != nil {
		return fmt.Errorf("replay storage: %w", opErr)
	}
	return nil
}
