package benchmark

// The clock-reading half of the harness starts here. These files are tests
// only by name: TestMain (main_test.go) runs them as the benchmark program.

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"strconv"
	"sync"
	"sync/atomic"
	"syscall"
	"time"
	"unsafe"
)

// clock is the run's time base: every span and window is nanoseconds since
// the run began.
type clock struct{ origin time.Time }

func newClock() clock { return clock{origin: time.Now()} }

func (c clock) ns() int64 { return int64(time.Since(c.origin)) }

// cpuSeconds is the process's user+system CPU time so far.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// every runs fn on its own goroutine once per period until the returned stop
// is called; stop waits for the goroutine to end.
func every(period time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// memSampler tracks the peak of the memory the Go runtime has in use —
// everything it has mapped, less the heap spans that are free or released
// back: the heap in use plus stacks, the collector's and the allocator's own
// structures — read every 10 ms through runtime/metrics, which does not stop
// the world. (Free spans wait for the scavenger, whose timing would make the
// peak of "mapped" vary; the heap in use alone is 4 MB on the workloads that
// allocate little, where the collector's timing moves its peak by a quarter.)
type memSampler struct {
	stopTick func()
	samples  []metrics.Sample
	peak     uint64
}

func startMemSampler() *memSampler {
	h := &memSampler{samples: []metrics.Sample{
		{Name: "/memory/classes/total:bytes"},
		{Name: "/memory/classes/heap/free:bytes"},
		{Name: "/memory/classes/heap/released:bytes"},
	}}
	h.read()
	h.stopTick = every(10*time.Millisecond, h.read)
	return h
}

func (h *memSampler) read() {
	metrics.Read(h.samples)
	if v := h.samples[0].Value.Uint64() - h.samples[1].Value.Uint64() - h.samples[2].Value.Uint64(); v > h.peak {
		h.peak = v
	}
}

// stop ends sampling and returns the peak in MB.
func (h *memSampler) stop() float64 {
	h.stopTick()
	h.read()
	return float64(h.peak) / (1 << 20)
}

var warmSink uint64

// preWarm keeps every processor busy for half a second before anything is
// timed: an idle sandbox's first half second of work runs at about half
// speed (frequency ramp-up), and set-up would otherwise be timed inside it.
func preWarm() {
	var wg sync.WaitGroup
	deadline := time.Now().Add(500 * time.Millisecond)
	for i := 0; i < runtime.GOMAXPROCS(0); i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			x := uint64(88172645463325252)
			for time.Now().Before(deadline) {
				for j := 0; j < 1<<16; j++ {
					x ^= x << 13
					x ^= x >> 7
					x ^= x << 17
				}
			}
			atomic.AddUint64(&warmSink, x)
		}()
	}
	wg.Wait()
}

// threadCPU is the calling thread's CPU time in seconds (the caller must have
// locked itself to its thread).
func threadCPU() float64 {
	const clockThreadCPUTime = 3 // CLOCK_THREAD_CPUTIME_ID
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTime, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return float64(ts.Sec) + float64(ts.Nsec)/1e9
}

var pageSink byte

// pageKernel is the host-speed reference: map 4 MB of fresh anonymous
// memory, touch every page (each touch is a fault the hypervisor must back),
// read it through, unmap it. It shares nothing with the program under test —
// no Go heap, no collector — and on this sandbox its cost tracks the
// minute-to-minute drift of allocation-heavy Go code (correlation 0.95–0.98
// over 5–20 s blocks; see README).
func pageKernel() error {
	const size = 4 << 20
	mem, err := syscall.Mmap(-1, 0, size, syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
	if err != nil {
		return err
	}
	for i := 0; i < size; i += 4096 {
		mem[i] = byte(i)
	}
	var sum byte
	for i := 0; i < size; i += 64 {
		sum += mem[i]
	}
	pageSink += sum
	return syscall.Munmap(mem)
}

// Host-speed reference. On this sandbox identical deterministic work (one
// registry experiment at a fixed seed, in a loop) drifts by ±15 % over tens of
// seconds, so no CPU-bound time metric repeats within a 25 % bound as
// measured. A run therefore times a reference kernel alongside the workload,
// ten times a second, and the metrics CPU cost bounds are reported at the
// kernel's nominal cost: value × nominal ÷ measured. The kernel runs in a
// process of its own (this binary started with -page-meter), so it shares no
// code, heap, address space or locks with the program under test: a change
// to the program cannot move it, only the host can.

// nominalPageMs is the reference speed the restated metrics are stated at: a
// round figure inside pageKernel's range here (2.3–2.5 ms of CPU time in a
// quiet hour with the processors kept awake, 3.0–3.7 ms in a slow one). Only
// ratios to it matter.
const nominalPageMs = 3.0

// cpuSet is the kernel's processor mask, as sched_getaffinity fills it.
type cpuSet [16]uint64

// allowedCPUs lists the processors this process may run on.
func allowedCPUs() []int {
	var set cpuSet
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_GETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		return nil
	}
	var cpus []int
	for i := 0; i < len(set)*64; i++ {
		if set[i/64]&(1<<(i%64)) != 0 {
			cpus = append(cpus, i)
		}
	}
	return cpus
}

// heat keeps one processor out of its idle state: it spins for the life of the
// process on a thread of its own, pinned to that processor, under SCHED_IDLE —
// the class that runs only when nothing else wants the processor and is
// preempted the moment something does. If the class or the pin is refused it
// does not spin at all.
func heat(cpu int) {
	runtime.LockOSThread()
	const schedIdle = 5 // SCHED_IDLE
	var param struct{ priority int32 }
	if _, _, errno := syscall.Syscall(syscall.SYS_SCHED_SETSCHEDULER, 0, schedIdle, uintptr(unsafe.Pointer(&param))); errno != 0 {
		fmt.Fprintln(os.Stderr, "page meter: no SCHED_IDLE, processors may idle:", errno)
		return
	}
	var set cpuSet
	set[cpu/64] = 1 << (cpu % 64)
	if _, _, errno := syscall.RawSyscall(syscall.SYS_SCHED_SETAFFINITY, 0, unsafe.Sizeof(set), uintptr(unsafe.Pointer(&set))); errno != 0 {
		fmt.Fprintln(os.Stderr, "page meter: cannot pin to a processor, processors may idle:", errno)
		return
	}
	x := uint64(88172645463325252)
	for {
		for j := 0; j < 1<<20; j++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		atomic.AddUint64(&warmSink, x)
	}
}

// pageMeterMain is the reference process. It keeps every processor from
// idling (heat), times pageKernel by its thread's CPU time (so waiting for a
// processor is not counted) every 100 ms, prints each reading in
// milliseconds on a line of its own, and ends when its standard input closes —
// which it does when the benchmark stops it, or dies.
func pageMeterMain() int {
	// A Go processor for each heater, one for the meter and one for the reader.
	cpus := allowedCPUs()
	runtime.GOMAXPROCS(len(cpus) + 2)
	for _, cpu := range cpus {
		go heat(cpu)
	}
	runtime.LockOSThread()
	eof := make(chan struct{})
	go func() {
		defer close(eof)
		_, _ = io.Copy(io.Discard, os.Stdin)
	}()
	tick := time.NewTicker(100 * time.Millisecond)
	defer tick.Stop()
	for {
		t0 := threadCPU()
		if err := pageKernel(); err != nil {
			fmt.Fprintln(os.Stderr, "page meter:", err)
			return 1
		}
		fmt.Printf("%.6f\n", (threadCPU()-t0)*1e3)
		select {
		case <-eof:
			return 0
		case <-tick.C:
		}
	}
}

// speedMeter runs the reference process and collects its readings.
type speedMeter struct {
	cmd    *exec.Cmd
	stdin  io.WriteCloser
	wg     sync.WaitGroup
	pageMs []float64
}

func startSpeedMeter() (*speedMeter, error) {
	m := &speedMeter{cmd: exec.Command(os.Args[0], "-page-meter")}
	m.cmd.Stderr = os.Stderr
	var err error
	if m.stdin, err = m.cmd.StdinPipe(); err != nil {
		return nil, err
	}
	out, err := m.cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := m.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start page meter: %w", err)
	}
	m.wg.Add(1)
	go func() {
		defer m.wg.Done()
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			if v, err := strconv.ParseFloat(sc.Text(), 64); err == nil {
				m.pageMs = append(m.pageMs, v)
			}
		}
	}()
	return m, nil
}

// stop ends the reference process, waits for it, and returns its median
// reading in milliseconds (0 when it produced none).
func (m *speedMeter) stop() (float64, error) {
	_ = m.stdin.Close() // the process ends at end of input
	m.wg.Wait()
	if err := m.cmd.Wait(); err != nil {
		return 0, fmt.Errorf("page meter: %w", err)
	}
	return Median(m.pageMs), nil
}

// window is the cost of one timed window: wall and CPU seconds plus the
// allocator's and collector's work inside it.
type window struct {
	wall, cpu      float64
	mallocs        uint64
	gcPauseMs      float64
	gcCycles       uint32
	t0             time.Time
	cpu0           float64
	ms0            runtime.MemStats
	startNs, endNs int64
}

func openWindow(c clock) *window {
	w := &window{}
	runtime.ReadMemStats(&w.ms0)
	w.cpu0 = cpuSeconds()
	w.t0 = time.Now()
	w.startNs = c.ns()
	return w
}

func (w *window) close(c clock) {
	w.wall = time.Since(w.t0).Seconds()
	w.endNs = c.ns()
	w.cpu = cpuSeconds() - w.cpu0
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.mallocs = ms.Mallocs - w.ms0.Mallocs
	w.gcPauseMs = float64(ms.PauseTotalNs-w.ms0.PauseTotalNs) / 1e6
	w.gcCycles = ms.NumGC - w.ms0.NumGC
}

// slices reads a monotone message counter and the process's CPU time at
// every slice boundary of a window, so throughput and CPU per message can be
// reported as the median slice: one slow slice (a noisy neighbour, a
// collection) does not move them.
type slices struct {
	stopTick func()
	counter  func() uint64
	at       []time.Time
	count    []uint64
	cpu      []float64
	// rates and costs are each slice's messages per second and CPU
	// microseconds per message, kept for the report.
	rates, costs []float64
}

func startSlices(width time.Duration, counter func() uint64) *slices {
	s := &slices{counter: counter}
	s.mark()
	s.stopTick = every(width, s.mark)
	return s
}

func (s *slices) mark() {
	s.at, s.count, s.cpu = append(s.at, time.Now()), append(s.count, s.counter()), append(s.cpu, cpuSeconds())
}

// finish ends sampling and returns the median slice's messages per second
// and CPU microseconds per message; whole stands in when the window was
// shorter than one slice.
func (s *slices) finish(whole *window, delivered uint64) (perS, cpuUs float64) {
	s.stopTick()
	var rates, costs []float64
	for i := 1; i < len(s.at); i++ {
		n := float64(s.count[i] - s.count[i-1])
		if n == 0 {
			continue
		}
		rates = append(rates, n/s.at[i].Sub(s.at[i-1]).Seconds())
		costs = append(costs, (s.cpu[i]-s.cpu[i-1])/n*1e6)
	}
	s.rates, s.costs = rates, costs
	if len(rates) == 0 {
		return float64(delivered) / whole.wall, whole.cpu / float64(delivered) * 1e6
	}
	return Median(rates), Median(costs)
}

// describe is the report's line on how far the slices of one window agreed:
// a host that changes speed within the run shows here, one that changes
// between runs does not.
func (s *slices) describe() string {
	r1, r3 := Quartiles(s.rates)
	c1, c3 := Quartiles(s.costs)
	return fmt.Sprintf("%d slices: quartiles of msgs/s %.0f / %.0f / %.0f, of CPU us/msg %.4f / %.4f / %.4f",
		len(s.costs), r1, Median(s.rates), r3, c1, Median(s.costs), c3)
}

// sleepUntil sleeps until t.
func sleepUntil(t time.Time) {
	if d := time.Until(t); d > 0 {
		time.Sleep(d)
	}
}

// waitFor polls cond every 2 ms until it holds or timeout passes.
func waitFor(timeout time.Duration, cond func() bool) bool {
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(2 * time.Millisecond)
	}
	return true
}

// fsTypes names the filesystem magic numbers a sandbox is likely to show.
var fsTypes = map[int64]string{
	0xEF53: "ext4", 0x58465342: "xfs", 0x9123683E: "btrfs", 0x01021994: "tmpfs",
	0x794C7630: "overlayfs", 0x6969: "nfs", 0x2FC12FC1: "zfs",
}

// fsType names the filesystem holding dir.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	if name, ok := fsTypes[int64(st.Type)]; ok {
		return name
	}
	return fmt.Sprintf("0x%x", int64(st.Type))
}

// hygiene describes the machine and runtime a result was measured on.
func hygiene(stableDir string) string {
	return fmt.Sprintf("nproc=%d GOMAXPROCS=%d %s stable_fs=%s",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), fsType(stableDir))
}
