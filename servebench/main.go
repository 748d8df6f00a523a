// Command servebench is the repository's serving benchmark. It builds
// nothing itself: run.sh builds dbserve and this driver from the checkout,
// then runs
//
//	servebench -workload <name> -seed <n> -seconds <s> -trace <0|1>
//
// The driver starts dbserve as its own process, seeds it, and drives it
// over loopback from two connections: an open-loop phase at the workload's
// fixed offered rate (latency timed from each request's due time), then a
// closed-loop phase with a fixed in-flight window (peak throughput). Every
// reply is checked against a golden copy. With -trace 0 it reports the
// end-to-end metrics; with -trace 1 it records spans around its own calls,
// reads the server's window-only counters, runs in-process probes of each
// layer, and reports the per-layer metrics. The last line of standard
// output is one JSON object; a run that fails a correctness or validity
// gate prints "correct": false and exits 1. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/wal"
	"repro/internal/wire"
)

// setupReps is how many times a run spawns and seeds a server; setup_s is
// the median of their set-up times. The last subRuns of them each serve
// one sub-run; the others are stopped at once.
const setupReps = 9

// subRuns is how many fresh servers a run measures in turn, each for its
// share of the seconds. How fast a server process runs on a small virtual
// machine differs from process to process; the run's distributions pool
// the sub-runs, so one run averages over several processes.
const subRuns = 3

// warmFirst is the first sub-run's warm-up: long enough for a virtual
// machine's CPUs to leave their idle state before anything is measured.
// Later sub-runs warm a fresh server on a busy machine for warmNext.
const (
	warmFirst = 5 * time.Second
	warmNext  = 2 * time.Second
)

// walSideSeconds is the length of the durable-writes sub-run a traced run
// of a workload without a WAL adds, so that the WAL layer's fsync figures
// come from a server.
const walSideSeconds = 5

// spanTarget is about how many requests per connection a traced run
// records spans for.
const spanTarget = 25000

// closedShare is the part of a sub-run's seconds the closed loop gets, and
// minWindowSweeps the fewest audit periods it may last; the open loop gets
// the rest.
const (
	closedShare     = 0.2
	minWindowSweeps = 16
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type options struct {
	w       *workload
	seed    int64
	seconds float64
	trace   bool
	bin     string // dbserve binary
	dir     string // work directory for logs, WAL directories and spans
	decl    *declaration
}

func main() {
	fs := flag.NewFlagSet("servebench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload: read-mostly, durable-writes, audit-storm, or all (each in turn)")
	seed := fs.Int64("seed", 1, "workload seed: the op stream and the arrival schedule")
	seconds := fs.Float64("seconds", 10, "measured seconds (open loop then closed loop)")
	traced := fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
	bin := fs.String("dbserve", ".bench_build/dbserve", "dbserve binary built from the checkout")
	dir := fs.String("dir", ".bench_build", "work directory for logs, WAL directories and spans")
	bench := fs.String("benchmark", "BENCHMARK.json", "the benchmark declaration: metric names and units")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	selected := workloads
	if *name != "all" {
		selected = nil
		if w := lookupWorkload(*name); w != nil {
			selected = []*workload{w}
		}
	}
	if len(selected) == 0 || *seconds <= 0 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "servebench: need -workload (read-mostly|durable-writes|audit-storm|all), -seconds > 0, -trace 0|1\n")
		os.Exit(2)
	}
	decl, err := loadDeclaration(*bench)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		os.Exit(2)
	}
	// Each open-loop sender sleeps in nanosleep holding its P; spare Ps
	// keep the receivers running meanwhile.
	runtime.GOMAXPROCS(runtime.GOMAXPROCS(0) + 2*conns)
	code := 0
	for _, w := range selected {
		opts := options{w: w, seed: *seed, seconds: *seconds, trace: *traced == 1, bin: *bin, dir: *dir, decl: decl}
		if c := runOne(opts); c > code {
			code = c
		}
	}
	os.Exit(code)
}

// runOne performs one workload's run and prints its result line; it
// returns the process exit code that run calls for.
func runOne(o options) int {
	rep, err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
	}
	if rep == nil {
		return 1
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "servebench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !rep.Correct {
		return 1
	}
	return 0
}

// gates collects correctness and validity failures; any one discards the
// run's numbers.
type gates []string

func (g *gates) check(ok bool, format string, args ...any) {
	if !ok {
		*g = append(*g, fmt.Sprintf(format, args...))
	}
}

// subRun is one fresh server measured through both phases.
type subRun struct {
	openRes, closedRes []*phaseResult
	openWin, closedWin window
	closedDur          time.Duration
	det                detection
	rss                float64
	// Host steal per slice of each phase.
	openTicks, closedTicks []int64
}

// run performs one benchmark run. A nil report means the run could not be
// carried out at all (no result line is printed).
func run(o options) (*report, error) {
	w := o.w
	if _, err := os.Stat(o.bin); err != nil {
		return nil, fmt.Errorf("dbserve binary: %w", err)
	}
	work, err := filepath.Abs(filepath.Join(o.dir, fmt.Sprintf("run-%s-%d-%d", w.name, o.seed, os.Getpid())))
	if err != nil {
		return nil, err
	}
	if err := os.MkdirAll(work, 0o755); err != nil {
		return nil, err
	}
	if err := os.MkdirAll(filepath.Join(o.dir, "logs"), 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	base := time.Now()
	var g gates

	// Set-up timing: the servers beyond those that serve a sub-run are
	// stopped at once.
	var setups []float64
	for i := 0; i < setupReps-subRuns; i++ {
		t0 := time.Now()
		srv, clients, err := setUp(o, base, i, walDirFor(o, work, i))
		if err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
		closeAll(clients)
		if err := srv.stop(); err != nil {
			return nil, fmt.Errorf("set-up %d: dbserve exit: %w", i, err)
		}
	}

	// Sub-runs: each a fresh server, each with its own share of the
	// measured seconds and inputs drawn from the seed.
	var subs []*subRun
	for i := setupReps - subRuns; i < setupReps; i++ {
		so := o
		so.seed = o.seed*31 + int64(i)
		warm := warmNext
		if len(subs) == 0 {
			warm = warmFirst
		}
		sr, setup, err := measure(so, &g, work, base, i, o.seconds/subRuns, warm)
		if err != nil {
			return nil, err
		}
		setups = append(setups, setup)
		subs = append(subs, sr)
	}
	checked := subs
	var walWin window
	if o.trace {
		walWin = subs[len(subs)-1].openWin
		if !w.wal {
			// Neither the WAL layer's fsync figures nor its group commit
			// exist on a server without a log: take them from a short
			// durable-writes sub-run on a server of their own.
			so := o
			so.w, so.trace = lookupWorkload("durable-writes"), false
			sr, _, err := measure(so, &g, work, base, setupReps, walSideSeconds, warmFirst)
			if err != nil {
				return nil, fmt.Errorf("WAL sub-run: %w", err)
			}
			walWin = sr.openWin
			checked = append(checked[:len(checked):len(checked)], sr)
		}
	}

	// Correctness of every reply and of the shot→finding join.
	var attempted, failed int64
	var det detection
	for _, sr := range checked {
		for _, rs := range [][]*phaseResult{sr.openRes, sr.closedRes} {
			for _, r := range rs {
				attempted += r.sent
				failed += r.failed + r.mismatches
				if err := errors.Join(r.sendErr, r.firstErr); err != nil {
					g.check(false, "conn: %v", err)
				}
			}
		}
		det.shots += sr.det.shots
		det.joined += sr.det.joined
		det.unjoined += sr.det.unjoined
	}
	g.check(failed == 0, "%d of %d ops failed", failed, attempted)
	g.check(det.unjoined == 0, "%d of %d shots never joined a finding", det.unjoined, det.shots)

	// Distributions pool the open loops of every measured sub-run, over
	// their quietest steal slices (see stealSlice and quietest).
	var late, detMs sample
	var rss []float64
	var openTicks, closedTicks [][]int64
	for i, sr := range subs {
		for _, r := range sr.openRes {
			late.vals = append(late.vals, r.late.vals...)
		}
		detMs.vals = append(detMs.vals, sr.det.latMs.vals...)
		rss = append(rss, sr.rss)
		openTicks = append(openTicks, sr.openTicks)
		closedTicks = append(closedTicks, sr.closedTicks)
		fmt.Printf("sub-run %d: host steal %d ticks in the open loop, %d in the closed loop\n",
			i, sum(sr.openTicks), sum(sr.closedTicks))
	}
	openOrder, openLeast := quietest(openTicks)
	closedOrder, closedLeast := quietest(closedTicks)
	// classLat gathers a class's latencies from the quietest slices: at
	// least openLeast of them, and more, quietest first, until they
	// support a p99.
	classLat := func(k int) (*sample, int) {
		var s sample
		used := 0
		for _, ref := range openOrder {
			if used >= openLeast && supports(s.n(), 0.99) {
				break
			}
			for _, r := range subs[ref.sub].openRes {
				s.vals = append(s.vals, r.lat[k][ref.slice].vals...)
			}
			used++
		}
		return &s, used
	}
	var okOps int64
	for _, ref := range closedOrder[:closedLeast] {
		for _, r := range subs[ref.sub].closedRes {
			okOps += r.okBySlice[ref.slice]
		}
	}
	fmt.Printf("host steal: open loops %d of %d slices steal-free, closed loops %d of %d\n",
		countFree(openOrder), len(openOrder), countFree(closedOrder), len(closedOrder))
	lateP99, ok := late.pct(0.99)
	g.check(ok, "too few open-loop sends (%d) for loadgen.late_p99_us", late.n())
	g.check(lateP99 <= lateBound, "loadgen.late_p99_us %.0f exceeds the %.0f bound", lateP99, lateBound)

	want := o.decl.EndToEnd
	if o.trace {
		want = o.decl.PerLayer
	}
	unitOf := units(want)
	rep := &report{Attempted: attempted, Failed: failed, Metrics: map[string]metric{}}
	var lines []string
	put := func(name string, v float64, n int) {
		unit, ok := unitOf[name]
		g.check(ok, "metric %s is not declared in BENCHMARK.json", name)
		rep.Metrics[name] = metric{Value: v, Unit: unit}
		if n > 0 {
			lines = append(lines, fmt.Sprintf("%-32s %14.4f %-6s n=%d", name, v, unit, n))
		} else {
			lines = append(lines, fmt.Sprintf("%-32s %14.4f %s", name, v, unit))
		}
	}
	pct := func(name string, s *sample, p float64) {
		v, ok := s.pct(p)
		g.check(ok, "%s: %d samples cannot support p%g", name, s.n(), p*100)
		put(name, v, s.n())
	}

	if !o.trace {
		put("setup_s", median(setups), len(setups))
		put("peak_ops_s", float64(okOps)/(float64(closedLeast)*stealSlice.Seconds()), int(okOps))
		for k, cn := range classNames {
			lat, used := classLat(k)
			lines = append(lines, fmt.Sprintf("%s latencies from %d of %d open-loop slices", cn, used, len(openOrder)))
			pct(cn+"_p50_us", lat, 0.5)
			pct(cn+"_p99_us", lat, 0.99)
		}
		pct("detect_p50_ms", &detMs, 0.5)
		pct("detect_p99_ms", &detMs, 0.99)
		put("server_rss_mb", median(rss), len(rss))
		lines = append(lines, fmt.Sprintf("%-32s %14.4f %-6s n=%d (gate: <= %.0f)", "loadgen.late_p99_us", lateP99, "us", late.n(), lateBound))
	} else {
		// Per-layer figures come from the last sub-run, on a warm host.
		sr := subs[len(subs)-1]
		lm, err := layerMetrics(o, sr.openWin, sr.closedWin, walWin, sr.openRes, work, base)
		if err != nil {
			return nil, err
		}
		names := make([]string, 0, len(lm))
		for n := range lm {
			names = append(names, n)
		}
		sort.Strings(names)
		for _, n := range names {
			put(n, lm[n], 0)
		}
		put("loadgen.late_p99_us", lateP99, late.n())
	}
	for _, d := range want {
		_, ok := rep.Metrics[d.Name]
		g.check(ok, "declared metric %s was not produced", d.Name)
	}

	region, err := regionBytes(w)
	if err != nil {
		return nil, err
	}
	fmt.Printf("servebench %s seed=%d seconds=%g trace=%v rate=%g/s window=%d sub-runs=%d region=%d bytes over %d shard(s)\n",
		w.name, o.seed, o.seconds, o.trace, w.rate, closedWindow, subRuns, region, w.shards)
	fmt.Printf("ops: attempted=%d succeeded=%d failed=%d\n", attempted, attempted-failed, failed)
	fmt.Printf("detection: shots=%d joined=%d unjoined=%d\n", det.shots, det.joined, det.unjoined)
	for _, l := range lines {
		fmt.Println(l)
	}
	rep.Correct = len(g) == 0
	if !rep.Correct {
		for _, msg := range g {
			fmt.Println("GATE FAILED:", msg)
		}
		rep.Metrics = map[string]metric{}
	}
	return rep, nil
}

// measure runs one sub-run: it spawns and seeds a fresh server, warms it
// up, arms the injector, runs the open loop and then the closed loop for
// secs seconds in all, quiesces, certifies and stops the server. It
// returns the sub-run and its set-up time; gate failures go to g.
func measure(o options, g *gates, work string, base time.Time, idx int, secs float64, warmFor time.Duration) (*subRun, float64, error) {
	w := o.w
	walDir := walDirFor(o, work, idx)
	t0 := time.Now()
	srv, clients, err := setUp(o, base, idx, walDir)
	if err != nil {
		return nil, 0, err
	}
	setup := time.Since(t0).Seconds()
	defer func() {
		closeAll(clients)
		srv.stop()
	}()
	ctl, err := wire.Dial(srv.addr)
	if err != nil {
		return nil, 0, err
	}
	defer ctl.Close()
	openDur, closedDur := phaseDurations(w, secs)

	// Warm-up: closed loop until caches, the WAL tail and a checkpoint are
	// past their cold state.
	warm, err := warmUp(o, srv, clients, warmFor)
	if err != nil {
		return nil, 0, err
	}
	if w.wal {
		g.check(warm.scalar["wal_last_seq"] >= float64(walWarmSeq),
			"warm-up reached WAL seq %.0f, short of %d", warm.scalar["wal_last_seq"], walWarmSeq)
		g.check(warm.scalar["wal_checkpoints"] >= 1, "warm-up wrote no checkpoint")
	}

	// Arm the static-mode data injector for the whole measured window.
	// Its journal is fetched between the phases and at the end, never
	// while a phase runs: the server snapshots every trace ring to answer,
	// which stalls the requests in flight. Each phase is short enough that
	// no ring wraps; a shot lost to a wrap would fail the join.
	if err := ctl.InjectCtl(injectPeriod, 0, wire.InjectModeStatic); err != nil {
		return nil, 0, fmt.Errorf("arm injector: %w", err)
	}
	jn := journal{}

	// Open loop.
	a, err := srv.scrape()
	if err != nil {
		return nil, 0, err
	}
	// Both connections and the steal watch share each phase's start.
	openStart := time.Now().Add(5 * time.Millisecond)
	start := int64(openStart.Sub(base))
	openSteal := watchSteal(openStart, slicesFor(openDur))
	defer openSteal.wait()
	openRes := drive(clients, func(c *client) *phase {
		ph := &phase{
			open:   true,
			sched:  newSchedule(o.seed, c.id, w.rate/conns),
			start:  start,
			end:    start + int64(openDur),
			record: true,
			slices: slicesFor(openDur),
		}
		if o.trace {
			// The first half runs untraced, the second traced: the
			// difference is the tracing overhead.
			ph.traceFrom = start + int64(openDur/2)
			// Sample requests so a connection keeps about spanTarget
			// traced requests however fast the workload runs.
			ph.traceEvery = uint32(max(1, w.rate/conns*openDur.Seconds()/2/spanTarget))
		}
		return ph
	})
	b, err := srv.scrape()
	if err != nil {
		return nil, 0, err
	}
	if err := srv.fetchJournal(jn); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}

	// Closed loop.
	closedStart := time.Now()
	start = int64(closedStart.Sub(base))
	closedSteal := watchSteal(closedStart, slicesFor(closedDur))
	defer closedSteal.wait()
	closedRes := drive(clients, func(c *client) *phase {
		return &phase{start: start, end: start + int64(closedDur), slices: slicesFor(closedDur)}
	})
	d, err := srv.scrape()
	if err != nil {
		return nil, 0, err
	}
	openTicks, err := openSteal.wait()
	if err != nil {
		return nil, 0, err
	}
	closedTicks, err := closedSteal.wait()
	if err != nil {
		return nil, 0, err
	}

	// Disarm, let the last shots be found, certify.
	if err := ctl.InjectCtl(0, 0, wire.InjectModeStatic); err != nil {
		return nil, 0, fmt.Errorf("disarm injector: %w", err)
	}
	time.Sleep(3 * w.auditPeriod)
	findings, err := ctl.Sweep()
	if err != nil {
		return nil, 0, fmt.Errorf("certifying sweep: %w", err)
	}
	g.check(findings == 0, "certifying sweep found %d faults", findings)
	if err := srv.fetchJournal(jn); err != nil {
		return nil, 0, fmt.Errorf("journal: %w", err)
	}
	rss, err := srv.peakRSSMB()
	if err != nil {
		return nil, 0, err
	}

	// Graceful shutdown; a WAL-backed server must recover every
	// acknowledged write.
	closeAll(clients)
	ctl.Close()
	if err := srv.stop(); err != nil {
		g.check(false, "dbserve did not exit cleanly: %v", err)
	}
	if w.wal {
		if err := verifyRecovery(w, walDir, clients); err != nil {
			g.check(false, "%v", err)
		}
	}

	// Window validity.
	sr := &subRun{
		openRes: openRes, closedRes: closedRes,
		openWin: window{a, b}, closedWin: window{b, d},
		closedDur: closedDur, det: joinShots(jn), rss: rss,
		openTicks: openTicks, closedTicks: closedTicks,
	}
	for _, win := range []struct {
		name string
		w    window
	}{{"open", sr.openWin}, {"closed", sr.closedWin}} {
		sweeps := win.w.delta("audit_sweeps") / float64(w.shards)
		g.check(sweeps >= 10, "%s %s window saw %.0f audit sweeps per shard, want >= 10", w.name, win.name, sweeps)
		if w.wal {
			fsyncs := win.w.histDelta("wal_fsync").count
			g.check(fsyncs >= 10, "%s %s window saw %.0f fsyncs, want >= 10", w.name, win.name, fsyncs)
		}
	}
	return sr, setup, nil
}

// phaseDurations splits a sub-run's seconds between the open and the
// closed loop. The closed loop gets closedShare of them, but at least
// minWindowSweeps audit periods, so that its window holds enough sweeps,
// rounded up to whole steal slices.
func phaseDurations(w *workload, secs float64) (open, closed time.Duration) {
	total := time.Duration(secs * float64(time.Second))
	closed = max(time.Duration(float64(total)*closedShare), minWindowSweeps*w.auditPeriod)
	closed = (closed + stealSlice - 1) / stealSlice * stealSlice
	return total - closed, closed
}

func countFree(order []sliceRef) int {
	n := 0
	for _, r := range order {
		if r.steal == 0 {
			n++
		}
	}
	return n
}

func sum(xs []int64) int64 {
	var t int64
	for _, x := range xs {
		t += x
	}
	return t
}

func walDirFor(o options, work string, idx int) string {
	if !o.w.wal {
		return ""
	}
	return filepath.Join(work, fmt.Sprintf("%s-wal-%d", o.w.name, idx))
}

func closeAll(clients []*client) {
	for _, c := range clients {
		c.close()
	}
}

// regionBytes is the size of the workload's database region, summed over
// its shards.
func regionBytes(w *workload) (int, error) {
	schemas, err := memdb.ShardSchemas(schemaFor(w.callRecords), w.shards)
	if err != nil {
		return 0, err
	}
	total := 0
	for _, s := range schemas {
		db, err := memdb.New(s)
		if err != nil {
			return 0, err
		}
		total += db.Size()
	}
	return total, nil
}

// serverArgs is the dbserve command line for a workload.
func serverArgs(w *workload, walDir string) []string {
	args := []string{
		"-shards", fmt.Sprint(w.shards),
		"-call-records", fmt.Sprint(w.callRecords),
		"-audit-period", w.auditPeriod.String(),
	}
	if w.wal {
		args = append(args, "-wal-dir", walDir, "-wal-checkpoint", fmt.Sprint(walCheckpointBytes))
	}
	return args
}

// setUp spawns server number idx of a run, waits for HEALTH, and seeds
// both connections.
func setUp(o options, base time.Time, idx int, walDir string) (*serverProc, []*client, error) {
	logPath := filepath.Join(o.dir, "logs", fmt.Sprintf("%s-seed%d-dbserve-%d.log", o.w.name, o.seed, idx))
	srv, err := startServer(o.bin, serverArgs(o.w, walDir), logPath)
	if err != nil {
		return nil, nil, err
	}
	if err := srv.waitHealthy(30 * time.Second); err != nil {
		srv.stop()
		return nil, nil, err
	}
	// The connections seed one after the other, so the server hands out
	// the same records to the same slots on every run of a seed.
	var clients []*client
	for i := 0; i < conns && err == nil; i++ {
		var c *client
		if c, err = dialClient(srv.addr, i, o.w, o.seed, base); err == nil {
			clients = append(clients, c)
			err = c.seed()
		}
	}
	if err == nil && o.w.shards > 1 {
		err = byShard(clients, o.w)
	}
	if err != nil {
		for _, c := range clients {
			c.close()
		}
		srv.stop()
		return nil, nil, err
	}
	return srv, clients, nil
}

// drive runs one phase on every connection at once.
func drive(clients []*client, mk func(*client) *phase) []*phaseResult {
	out := make([]*phaseResult, len(clients))
	var wg sync.WaitGroup
	for i, c := range clients {
		ph := mk(c)
		wg.Add(1)
		go func(i int, c *client) {
			defer wg.Done()
			out[i] = c.run(ph)
		}(i, c)
	}
	wg.Wait()
	return out
}

// warmUp runs the closed loop for warmFor, and on a WAL workload until the
// log has passed the tail cap and written a checkpoint. It returns
// the server's metrics at its end.
func warmUp(o options, srv *serverProc, clients []*client, warmFor time.Duration) (*promSnap, error) {
	var stop atomic.Bool
	var serr error
	done := make(chan struct{})
	pollDone := make(chan struct{})
	go func() {
		defer close(pollDone)
		minEnd := time.Now().Add(warmFor)
		deadline := time.Now().Add(90 * time.Second)
		for {
			select {
			case <-done:
				return
			case <-time.After(50 * time.Millisecond):
			}
			if time.Now().Before(minEnd) {
				continue
			}
			if !o.w.wal {
				stop.Store(true)
				return
			}
			s, err := srv.scrape()
			if err != nil {
				serr = err
				stop.Store(true)
				return
			}
			if (s.scalar["wal_last_seq"] >= float64(walWarmSeq) && s.scalar["wal_checkpoints"] >= 1) ||
				time.Now().After(deadline) {
				stop.Store(true)
				return
			}
		}
	}()
	// The warm-up draws from its own streams, so the measured phases see
	// the same ops on every run of a seed however long the warm-up lasts.
	res := drive(clients, func(c *client) *phase {
		return &phase{ops: newStream(o.w, ^o.seed, c.id), start: c.now(), end: 1 << 62, stop: &stop}
	})
	close(done)
	<-pollDone
	if serr != nil {
		return nil, serr
	}
	for _, r := range res {
		if err := errors.Join(r.sendErr, r.firstErr); err != nil {
			return nil, fmt.Errorf("warm-up: %w", err)
		}
	}
	return srv.scrape()
}

// verifyRecovery rebuilds the region from the WAL directory the server
// left behind and checks every slot against its golden copy.
func verifyRecovery(w *workload, dir string, clients []*client) error {
	res, err := wal.Recover(dir, schemaFor(w.callRecords))
	if err != nil {
		return fmt.Errorf("wal recover: %w", err)
	}
	bad := 0
	var first string
	for _, c := range clients {
		for si, s := range c.slots {
			st, err := res.DB.StatusDirect(callproc.TblRes, int(s.rec))
			ok := err == nil && st == memdb.StatusActive
			for fi := 0; ok && fi < len(s.golden); fi++ {
				v, err := res.DB.ReadFieldDirect(callproc.TblRes, int(s.rec), fi)
				ok = err == nil && v == s.golden[fi]
			}
			if !ok {
				if bad == 0 {
					first = fmt.Sprintf("conn %d slot %d (record %d)", c.id, si, s.rec)
				}
				bad++
			}
		}
	}
	if bad > 0 {
		return fmt.Errorf("recovered WAL disagrees with %d acknowledged slots, first %s", bad, first)
	}
	return nil
}
