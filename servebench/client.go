package main

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync/atomic"
	"time"

	"repro/internal/callproc"
	"repro/internal/memdb"
	"repro/internal/wire"
)

// fifoCap bounds the requests one connection may have in flight. The open
// loop sends on schedule whatever the server does, so the bound only has
// to outlast a stall: at 10k ops/s per connection it covers 6.5 seconds.
const fifoCap = 1 << 16

// slotState is one Resource record a connection owns and the golden copy
// every read of it is checked against.
type slotState struct {
	rec    int32
	bank   int
	golden [3]uint32
}

// client drives one connection. The server answers each connection's
// frames in order, so replies match requests first-in first-out and a
// connection always reads its own writes.
//
// wire.Pipeline cannot send while it waits for a reply, so the open loop
// would stop sending during every server stall. The client therefore keeps
// the socket itself and uses the same codec calls Pipeline makes
// (AppendRequest + WriteFrame, Flush, ReadFrame + ParseResponse) from a
// sending and a receiving goroutine.
type client struct {
	id    int
	w     *workload
	nc    net.Conn
	br    *bufio.Reader
	bw    *bufio.Writer
	seq   uint32
	buf   []byte
	base  time.Time
	ops   *stream
	slots []slotState
}

func dialClient(addr string, id int, w *workload, seed int64, base time.Time) (*client, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &client{
		id: id, w: w, nc: nc, base: base,
		br:  bufio.NewReaderSize(nc, 64<<10),
		bw:  bufio.NewWriterSize(nc, 64<<10),
		ops: newStream(w, seed, id),
	}, nil
}

func (c *client) close() { _ = c.nc.Close() }

func (c *client) now() int64 { return int64(time.Since(c.base)) }

func (c *client) send(q wire.Request) (uint32, error) {
	c.seq++
	q.Seq = c.seq
	c.buf = wire.AppendRequest(c.buf[:0], q)
	return c.seq, wire.WriteFrame(c.bw, c.buf)
}

func (c *client) recv() (wire.Response, error) {
	payload, err := wire.ReadFrame(c.br, wire.MaxFrame)
	if err != nil {
		return wire.Response{}, err
	}
	return wire.ParseResponse(payload)
}

// batch sends qs back to back, flushes once, and returns the replies in
// order; any transport, sequence or response error fails it.
func (c *client) batch(qs []wire.Request) ([]wire.Response, error) {
	first := c.seq + 1
	for _, q := range qs {
		if _, err := c.send(q); err != nil {
			return nil, err
		}
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	out := make([]wire.Response, len(qs))
	for i := range qs {
		r, err := c.recv()
		if err != nil {
			return nil, err
		}
		if r.Seq != first+uint32(i) {
			return nil, fmt.Errorf("reply seq %d, want %d", r.Seq, first+uint32(i))
		}
		if err := r.Err(); err != nil {
			return nil, fmt.Errorf("%v: %w", qs[i].Op, err)
		}
		out[i] = r
	}
	return out, nil
}

// seed opens the session and allocates the connection's slots, spread over
// the resource banks. A fresh record carries the schema defaults, which
// become the golden copy.
func (c *client) seed() error {
	if _, err := c.batch([]wire.Request{{Op: wire.OpInit}}); err != nil {
		return fmt.Errorf("DBinit: %w", err)
	}
	var defaults [3]uint32
	spec := callproc.Schema(callproc.SchemaConfig{CallRecords: c.w.callRecords}).Tables[callproc.TblRes]
	for fi := range defaults {
		defaults[fi] = spec.Fields[fi].Default
	}
	n := c.w.slots
	if c.w.shards > 1 {
		n += shardSpare // see byShard
	}
	c.slots = make([]slotState, n)
	const chunk = 256
	for lo := 0; lo < len(c.slots); lo += chunk {
		hi := min(lo+chunk, len(c.slots))
		qs := make([]wire.Request, 0, hi-lo)
		for i := lo; i < hi; i++ {
			qs = append(qs, wire.Request{Op: wire.OpAlloc, Table: callproc.TblRes, Aux: int32(i % callproc.ResourceBanks)})
		}
		rs, err := c.batch(qs)
		if err != nil {
			return fmt.Errorf("seed DBalloc: %w", err)
		}
		for i, r := range rs {
			if len(r.Vals) != 1 {
				return fmt.Errorf("seed DBalloc: reply carries %d values", len(r.Vals))
			}
			c.slots[lo+i] = slotState{rec: int32(r.Vals[0]), bank: (lo + i) % callproc.ResourceBanks, golden: defaults}
		}
	}
	return nil
}

// shardSpare is how many records beyond its slots a connection allocates
// on a sharded server, so byShard can fill every connection's slots from
// one shard even when the coordinator's allocation cursor does not split
// the seeding exactly evenly.
const shardSpare = 64

// byShard regroups the seeded records of a sharded server so that each
// connection owns the records of a single shard. The server answers a
// connection's requests in order, so a connection that touched both shards
// would wait for either shard's audit sweep, and how much the two sweep
// schedules overlap drifts from run to run; one shard per connection keeps
// each connection's latency a property of one executor.
func byShard(clients []*client, w *workload) error {
	pool := make([][]slotState, w.shards)
	for _, c := range clients {
		for _, s := range c.slots {
			k := memdb.ShardOf(int(s.rec), w.shards)
			pool[k] = append(pool[k], s)
		}
	}
	for i, c := range clients {
		k := i % w.shards
		if len(pool[k]) < w.slots {
			return fmt.Errorf("shard %d holds %d seeded records, connection %d needs %d", k, len(pool[k]), i, w.slots)
		}
		c.slots, pool[k] = pool[k][:w.slots], pool[k][w.slots:]
	}
	return nil
}

// inflight is one sent request awaiting its reply, with what the reply
// must say.
type inflight struct {
	seq    uint32
	kind   opKind
	free   bool // churn: the FREE half
	held   bool // holds a closed-loop window slot
	slot   int32
	field  uint8
	exp    [3]uint32
	due    int64 // ns since base: when the request was due
	sent   int64
	traced bool
}

// phase describes one stretch of load on a connection.
type phase struct {
	ops    *stream // nil: the connection's own stream
	open   bool
	sched  *schedule // open loop: arrival times from start
	start  int64     // ns since base
	end    int64     // no new ops due at or after end
	stop   *atomic.Bool
	record bool // keep latencies and lateness
	slices int  // steal slices the phase spans; 0 = no per-slice records
	// traceFrom, when positive, records spans for every traceEvery-th
	// request due at or after it (ns since base).
	traceFrom  int64
	traceEvery uint32
}

// phaseResult is what one connection saw in one phase. The sender owns
// the first group of fields, the receiver the second; they are read only
// after both goroutines finish.
type phaseResult struct {
	// Sender.
	sent, flushes int64
	late          sample // µs past the due time at send
	sendSpans     spanLog
	sendErr       error // the first send or flush failure; sending stops
	// Receiver.
	ok, failed, mismatches int64
	firstErr               error
	// lat is µs from due to decoded reply, per class and per steal slice
	// by due time; okBySlice counts OK replies per slice by reply time.
	lat       [numClasses][]sample
	okBySlice []int64
	recvSpans spanLog
	// Traced runs: latency of all ops, µs, before and after traceFrom.
	untracedLat, tracedLat sample
}

func (r *phaseResult) fail(err error) {
	if r.firstErr == nil {
		r.firstErr = err
	}
}

// run drives one phase to its end and waits for every reply.
func (c *client) run(ph *phase) *phaseResult {
	res := &phaseResult{okBySlice: make([]int64, ph.slices)}
	for k := range res.lat {
		res.lat[k] = make([]sample, ph.slices)
	}
	fifo := make(chan inflight, fifoCap)
	follow := make(chan int32, fifoCap) // churn FREEs; at most one per in-flight ALLOC
	progress := make(chan struct{}, 1)
	var outstanding atomic.Int64
	var sem chan struct{}
	if !ph.open {
		sem = make(chan struct{}, closedWindow)
	}
	if ph.open {
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		setTimerSlack()
	}
	readerDone := make(chan struct{})
	go func() {
		defer close(readerDone)
		c.receive(ph, fifo, follow, sem, &outstanding, progress, res)
	}()

	ops := ph.ops
	if ops == nil {
		ops = c.ops
	}
	timer := time.NewTimer(time.Hour)
	timer.Stop()
	buffered := 0
	batchFirst, batchTraced := uint32(0), false
	flush := func() {
		if buffered == 0 {
			return
		}
		t0 := c.now()
		if err := c.bw.Flush(); err != nil && res.sendErr == nil {
			res.sendErr = fmt.Errorf("flush: %w", err)
		}
		if batchTraced {
			res.sendSpans.add(spanFlush, batchFirst, t0, c.now())
		}
		res.flushes++
		buffered = 0
	}
	emit := func(q wire.Request, inf inflight) {
		t0 := c.now()
		seq, err := c.send(q)
		if err != nil && res.sendErr == nil {
			res.sendErr = fmt.Errorf("send: %w", err)
		}
		inf.seq, inf.sent = seq, c.now()
		inf.traced = ph.traceFrom > 0 && inf.due >= ph.traceFrom && seq%ph.traceEvery == 0
		if inf.traced {
			res.sendSpans.add(spanSend, seq, t0, inf.sent)
		}
		if ph.record {
			res.late.add(float64(t0-inf.due) / 1e3)
		}
		if buffered == 0 {
			batchFirst, batchTraced = seq, inf.traced
		}
		buffered++
		res.sent++
		outstanding.Add(1)
		fifo <- inf
	}
	emitFree := func(rec int32) {
		emit(wire.Request{Op: wire.OpFree, Table: callproc.TblRes, Record: rec},
			inflight{kind: kChurn, free: true, slot: rec, due: c.now()})
	}

	for {
		select {
		case rec := <-follow:
			emitFree(rec)
			continue
		default:
		}
		if res.sendErr != nil || (ph.stop != nil && ph.stop.Load()) {
			break
		}
		var due int64
		held := false
		if ph.open {
			due = ph.start + int64(ph.sched.next())
			if due >= ph.end {
				break
			}
			if wait := due - c.now(); wait > 0 {
				flush()
				// Runtime timers round sub-millisecond sleeps up to a
				// millisecond; the last stretch sleeps in nanosleep so
				// the generator is late by microseconds, not by that.
				if wait > int64(coarseSleep) {
					timer.Reset(time.Duration(wait) - coarseSleep)
					waiting := true
					for waiting {
						select {
						case <-timer.C:
							waiting = false
						case rec := <-follow:
							emitFree(rec)
							flush()
						}
					}
				}
				preciseSleep(time.Duration(due - c.now()))
			}
		} else {
			if c.now() >= ph.end {
				break
			}
			select {
			case sem <- struct{}{}:
			default:
				flush()
				acquired := false
				for !acquired {
					select {
					case sem <- struct{}{}:
						acquired = true
					case rec := <-follow:
						emitFree(rec)
						flush()
					}
				}
			}
			held = true
			due = c.now()
		}
		q, inf := c.prepare(ops.next())
		inf.due, inf.held = due, held
		emit(q, inf)
	}
	// Drain: the churn FREEs still owed must go out before the phase ends.
	for outstanding.Load() > 0 {
		flush()
		select {
		case rec := <-follow:
			emitFree(rec)
		case <-progress:
		}
	}
	close(fifo)
	<-readerDone
	return res
}

// prepare turns an op into its request and the reply it must produce,
// advancing the golden copy for mutations: the server applies this
// connection's requests in order, so every later read must see them.
func (c *client) prepare(o op) (wire.Request, inflight) {
	s := &c.slots[o.slot]
	q := wire.Request{Table: callproc.TblRes, Record: s.rec}
	inf := inflight{kind: o.kind, slot: o.slot, field: o.field}
	switch o.kind {
	case kReadFld:
		q.Op, q.Field = wire.OpReadFld, int32(o.field)
		inf.exp[0] = s.golden[o.field]
	case kReadRec:
		q.Op = wire.OpReadRec
		inf.exp = s.golden
	case kStatus:
		q.Op = wire.OpStatus
		inf.exp[0] = memdb.StatusActive
	case kWriteFld:
		q.Op, q.Field, q.Vals = wire.OpWriteFld, int32(o.field), []uint32{o.vals[0]}
		s.golden[o.field] = o.vals[0]
	case kWriteRec:
		q.Op, q.Vals = wire.OpWriteRec, o.vals[:]
		s.golden = o.vals
	case kMove:
		s.bank = (s.bank + int(o.bank)) % callproc.ResourceBanks
		q.Op, q.Aux = wire.OpMove, int32(s.bank)
	case kChurn:
		q = wire.Request{Op: wire.OpAlloc, Table: callproc.TblRes,
			Aux: int32((s.bank + int(o.bank)) % callproc.ResourceBanks)}
	case kProc:
		quality := min(o.vals[0], 100)
		q = wire.Request{Op: wire.OpProcExec, Detail: "res_touch", Vals: []uint32{uint32(s.rec), o.vals[0]}}
		inf.exp = [3]uint32{quality, uint32(s.rec)}
		s.golden[callproc.FldResQuality] = quality
	}
	return q, inf
}

// receive reads replies in order, checks each against its expectation,
// and times it from its due time.
func (c *client) receive(ph *phase, fifo <-chan inflight, follow chan<- int32, sem <-chan struct{},
	outstanding *atomic.Int64, progress chan<- struct{}, res *phaseResult) {
	for inf := range fifo {
		t0 := c.now()
		r, err := c.recv()
		done := c.now()
		if err != nil {
			res.failed++
			res.fail(fmt.Errorf("recv: %w", err))
			c.retire(inf, sem, outstanding, progress)
			continue
		}
		if inf.traced {
			res.recvSpans.add(spanRecv, inf.seq, max(t0, inf.sent), done)
			res.recvSpans.add(spanRequest, inf.seq, inf.due, done)
		}
		switch {
		case r.Seq != inf.seq:
			res.failed++
			res.fail(fmt.Errorf("reply seq %d, want %d", r.Seq, inf.seq))
		case r.Code != wire.CodeOK:
			res.failed++
			res.fail(fmt.Errorf("%s: %w", kindNames[inf.kind], r.Err()))
		default:
			if err := c.check(inf, r, follow); err != nil {
				res.mismatches++
				res.fail(err)
			} else {
				res.ok++
				if ph.slices > 0 {
					res.okBySlice[sliceOf(done, ph)]++
				}
			}
		}
		if ph.record {
			us := float64(done-inf.due) / 1e3
			res.lat[classOf(inf.kind)][sliceOf(inf.due, ph)].add(us)
			switch {
			case inf.traced:
				res.tracedLat.add(us)
			case ph.traceFrom > 0:
				res.untracedLat.add(us)
			}
		}
		c.retire(inf, sem, outstanding, progress)
	}
}

// sliceOf places a time (ns since base) in one of the phase's steal
// slices; replies that land after the phase's last slice count in it.
func sliceOf(t int64, ph *phase) int {
	return min(max(int((t-ph.start)/int64(stealSlice)), 0), ph.slices-1)
}

func (c *client) retire(inf inflight, sem <-chan struct{}, outstanding *atomic.Int64, progress chan<- struct{}) {
	if inf.held {
		<-sem
	}
	outstanding.Add(-1)
	select {
	case progress <- struct{}{}:
	default:
	}
}

var errMismatch = errors.New("golden-copy mismatch")

// check compares an OK reply with what the golden copy predicts.
func (c *client) check(inf inflight, r wire.Response, follow chan<- int32) error {
	want := func(n int) error {
		if len(r.Vals) != n {
			return fmt.Errorf("%w: %s slot %d: %d values, want %d", errMismatch, kindNames[inf.kind], inf.slot, len(r.Vals), n)
		}
		for i := 0; i < n; i++ {
			if r.Vals[i] != inf.exp[i] {
				return fmt.Errorf("%w: %s slot %d value %d = %d, golden %d",
					errMismatch, kindNames[inf.kind], inf.slot, i, r.Vals[i], inf.exp[i])
			}
		}
		return nil
	}
	switch inf.kind {
	case kReadFld, kStatus:
		return want(1)
	case kReadRec:
		return want(3)
	case kProc:
		return want(2)
	case kChurn:
		if inf.free {
			return nil
		}
		if len(r.Vals) != 1 {
			return fmt.Errorf("%w: ALLOC reply carries %d values", errMismatch, len(r.Vals))
		}
		follow <- int32(r.Vals[0])
	}
	return nil
}
