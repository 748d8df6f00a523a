package main

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"math"
	"net"
	"slices"
	"sort"
	"strconv"
	"testing"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// appendOp encodes an op, field by field.
func appendOp(dst []byte, o op) []byte {
	dst = append(dst, byte(o.kind), o.field, o.bank)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(o.slot))
	for _, v := range o.vals {
		dst = binary.LittleEndian.AppendUint32(dst, v)
	}
	return dst
}

func encodeStream(w *workload, seed int64, conn, n int) []byte {
	st := newStream(w, seed, conn)
	var out []byte
	for i := 0; i < n; i++ {
		out = appendOp(out, st.next())
	}
	return out
}

func TestStreamDeterministic(t *testing.T) {
	for _, w := range workloads {
		for conn := 0; conn < conns; conn++ {
			a := encodeStream(w, 42, conn, 5000)
			b := encodeStream(w, 42, conn, 5000)
			if !bytes.Equal(a, b) {
				t.Errorf("%s conn %d: same seed gave different op streams", w.name, conn)
			}
			if c := encodeStream(w, 43, conn, 5000); bytes.Equal(a, c) {
				t.Errorf("%s conn %d: seeds 42 and 43 gave the same op stream", w.name, conn)
			}
		}
		if bytes.Equal(encodeStream(w, 42, 0, 5000), encodeStream(w, 42, 1, 5000)) {
			t.Errorf("%s: both connections drew the same ops", w.name)
		}
		s1, s2 := newSchedule(42, 0, 1000), newSchedule(42, 0, 1000)
		for i := 0; i < 1000; i++ {
			if s1.next() != s2.next() {
				t.Fatalf("%s: same seed gave different arrival schedules", w.name)
			}
		}
	}
}

func TestStreamMix(t *testing.T) {
	w := lookupWorkload("read-mostly")
	st := newStream(w, 1, 0)
	var counts [numClasses]int
	const n = 100000
	for i := 0; i < n; i++ {
		counts[classOf(st.next().kind)]++
	}
	if got := float64(counts[classRead]) / n; math.Abs(got-0.84) > 0.01 {
		t.Errorf("read share %.3f, want about 0.84", got)
	}
	if got := float64(counts[classProc]) / n; math.Abs(got-0.02) > 0.003 {
		t.Errorf("proc share %.4f, want about 0.02", got)
	}
}

func TestPercentileNeedsTenBeyond(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(i + 1)
		}
		return xs
	}
	cases := []struct {
		n    int
		p    float64
		want float64
		ok   bool
	}{
		{1000, 0.99, 990, true},
		{999, 0.99, 0, false},
		{20, 0.5, 10, true},
		{19, 0.5, 0, false},
		{0, 0.5, 0, false},
		{100000, 0.999, 99900, true},
	}
	for _, c := range cases {
		got, ok := percentile(seq(c.n), c.p)
		if ok != c.ok || (ok && got != c.want) {
			t.Errorf("percentile(n=%d, p=%g) = %g, %v; want %g, %v", c.n, c.p, got, ok, c.want, c.ok)
		}
	}
	// The histogram estimate obeys the same rule.
	bounds := []float64{10, 20, math.Inf(1)}
	if _, ok := histQuantile(bounds, []float64{500, 999, 999}, 0.99); ok {
		t.Error("histQuantile reported p99 of 999 observations")
	}
	if v, ok := histQuantile(bounds, []float64{500, 1000, 1000}, 0.5); !ok || v != 10 {
		t.Errorf("histQuantile p50 = %g, %v; want 10, true", v, ok)
	}
}

func TestJoinShots(t *testing.T) {
	ms := time.Millisecond
	j := journal{}
	add := func(seq uint64, kind trace.Kind, id uint64, at time.Duration, op string) {
		j[seq] = trace.Event{Seq: seq, Kind: kind, Trace: id, At: at, Op: op}
	}
	add(1, trace.KindShot, 100, 10*ms, "dbflip")
	add(2, trace.KindShot, 101, 20*ms, "dbflip")
	add(3, trace.KindShot, 102, 30*ms, "dbflip")
	add(4, trace.KindShot, 103, 35*ms, "textflip") // procedure text shot: not a region shot
	add(5, trace.KindFinding, 100, 50*ms, "")
	add(6, trace.KindFinding, 100, 90*ms, "") // a later finding of the same shot
	add(7, trace.KindFinding, 101, 120*ms, "")
	add(8, trace.KindFinding, 0, 130*ms, "") // unrelated finding
	d := joinShots(j)
	if d.shots != 3 || d.joined != 2 || d.unjoined != 1 {
		t.Fatalf("shots=%d joined=%d unjoined=%d, want 3/2/1", d.shots, d.joined, d.unjoined)
	}
	got := append([]float64(nil), d.latMs.vals...)
	sort.Float64s(got)
	if len(got) != 2 || got[0] != 40 || got[1] != 100 {
		t.Errorf("detection latencies %v ms, want [40 100]", got)
	}
}

// fakeServer answers every frame with an OK status reply ([active]) in
// order, stalling once for stall before answering request stallAt.
func fakeServer(t *testing.T, stallAt uint32, stall time.Duration) string {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		nc, err := ln.Accept()
		if err != nil {
			return
		}
		defer nc.Close()
		br, bw := bufio.NewReader(nc), bufio.NewWriter(nc)
		var buf []byte
		for {
			p, err := wire.ReadFrame(br, wire.MaxFrame)
			if err != nil {
				return
			}
			q, err := wire.ParseRequest(p)
			if err != nil {
				return
			}
			if q.Seq == stallAt {
				bw.Flush()
				time.Sleep(stall)
			}
			buf = wire.AppendResponse(buf[:0], wire.Response{Seq: q.Seq, Vals: []uint32{1}})
			if wire.WriteFrame(bw, buf) != nil {
				return
			}
			if br.Buffered() == 0 && bw.Flush() != nil {
				return
			}
		}
	}()
	return ln.Addr().String()
}

func TestOpenLoopCountsStall(t *testing.T) {
	const rate, stall = 1000.0, 200 * time.Millisecond
	w := &workload{name: "status-only", slots: 4, mix: [numKinds]float64{kStatus: 1}, callRecords: 16}
	addr := fakeServer(t, 300, stall)
	c, err := dialClient(addr, 0, w, 7, time.Now())
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	c.slots = make([]slotState, w.slots)
	start := c.now()
	res := c.run(&phase{
		open: true, sched: newSchedule(7, 0, rate),
		start: start, end: start + int64(time.Second), record: true, slices: slicesFor(time.Second),
	})
	if res.firstErr != nil || res.failed+res.mismatches != 0 {
		t.Fatalf("run failed: %v (failed %d, mismatches %d)", res.firstErr, res.failed, res.mismatches)
	}
	var lat sample
	for _, s := range res.lat[classRead] {
		lat.vals = append(lat.vals, s.vals...)
	}
	// Requests due during the stall wait for its end, so ~rate×stall of
	// them are late by a large part of it — a closed loop would have
	// sent none of them and recorded one slow request.
	slow := 0
	for _, v := range lat.vals {
		if v > float64(stall/4/time.Microsecond) {
			slow++
		}
	}
	if want := int(rate * stall.Seconds() / 2); slow < want {
		t.Errorf("%d requests waited over %v, want at least %d", slow, stall/4, want)
	}
	if mx, _ := lat.pct(0.999); mx < float64(stall/2/time.Microsecond) {
		t.Errorf("p99.9 latency %.0fµs does not show the %v stall", mx, stall)
	}
	// The sender kept to its schedule through the stall: a sender that
	// waited for replies would be late by most of the stall for a fifth of
	// its requests.
	if late, _ := res.late.pct(0.99); late > float64(stall/4/time.Microsecond) {
		t.Errorf("generator late p99 %.0fµs: it stalled with the server", late)
	}
	if res.sent < 800 {
		t.Errorf("sent %d requests in 1s at %g/s", res.sent, rate)
	}
}

func TestParsePromWindow(t *testing.T) {
	doc := func(c1, c2, total, sum float64) string {
		return "# TYPE x_count counter\nx_count 5\n# TYPE lat histogram\n" +
			"lat_bucket{le=\"1000\"} " + ftoa(c1) + "\nlat_bucket{le=\"2000\"} " + ftoa(c2) +
			"\nlat_bucket{le=\"+Inf\"} " + ftoa(total) + "\nlat_sum " + ftoa(sum) + "\nlat_count " + ftoa(total) + "\n"
	}
	a, err := parseProm(doc(100, 100, 100, 5e4), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	b, err := parseProm(doc(100, 1100, 1100, 5e4+1.5e6), time.Now())
	if err != nil {
		t.Fatal(err)
	}
	h := window{a, b}.histDelta("lat")
	if h.count != 1000 || h.mean() != 1500 {
		t.Fatalf("window count %g mean %g, want 1000 and 1500", h.count, h.mean())
	}
	if v, ok := h.quantile(0.5); !ok || v != 1500 {
		t.Errorf("window p50 = %g, %v; want 1500 (the earlier 100 fast observations excluded)", v, ok)
	}
	if a.scalar["x_count"] != 5 {
		t.Errorf("scalar x_count = %g", a.scalar["x_count"])
	}
}

func ftoa(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func TestSelfTime(t *testing.T) {
	parent := span{start: 0, end: 100}
	kids := []span{{start: 10, end: 20}, {start: 15, end: 30}, {start: 90, end: 150}, {start: -5, end: 2}}
	if got := selfTime(parent, kids); got != 100-20-10-2 {
		t.Errorf("self time %d, want %d", got, 100-20-10-2)
	}
}

func TestParseSteal(t *testing.T) {
	stat := []byte("cpu  603081 0 223034 1428655 5057 0 45564 103516 0 0\ncpu0 1 2 3 4 5 6 7 8 0 0\n")
	if v, err := parseSteal(stat); err != nil || v != 103516 {
		t.Errorf("parseSteal = %d, %v; want 103516", v, err)
	}
	if _, err := parseSteal([]byte("intr 1 2 3\n")); err == nil {
		t.Error("parseSteal accepted a stat file without a cpu line")
	}
}

func TestQuietest(t *testing.T) {
	// A steal counts against its own slice and both neighbours.
	order, least := quietest([][]int64{{0, 0, 3, 0, 0, 0, 1}})
	var free []int
	for _, r := range order {
		if r.steal == 0 {
			free = append(free, r.slice)
		}
	}
	if !slices.Equal(free, []int{0, 4}) {
		t.Errorf("steal-free slices %v, want [0 4]", free)
	}
	// Fewer than half are steal-free, so the quieter half counts.
	if least != 4 || order[2].steal != 1 || order[3].steal != 1 {
		t.Errorf("least %d, order %v: want 4, then the slices next to the one-tick steal", least, order)
	}
	order, least = quietest([][]int64{{0, 0, 0, 0}, {0, 0, 0, 2}})
	if least != 6 || len(order) != 8 || order[6].sub != 1 || order[7].sub != 1 {
		t.Errorf("least %d, order %v: want 6 steal-free slices first, across sub-runs", least, order)
	}
}
