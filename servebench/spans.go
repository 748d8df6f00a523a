package main

import (
	"bufio"
	"fmt"
	"os"
	"sort"
)

// Span kinds the driver records around its own calls. A request span runs
// from the request's due time to its decoded reply; send, flush and recv
// are its children. A flush carries the first request of the batch it
// pushed out.
const (
	spanRequest uint8 = iota
	spanSend
	spanFlush
	spanRecv
	spanProbe
)

var spanNames = [...]string{"request", "wire.send", "wire.flush", "wire.recv", "probe"}

// maxSpans caps one log so a long traced run cannot exhaust memory; spans
// past the cap are counted, not kept.
const maxSpans = 1 << 20

type span struct {
	kind       uint8
	req        uint32 // request sequence (its own, or its parent's)
	start, end int64  // ns since the run's base time
}

// spanLog is an append-only in-memory span buffer, owned by one goroutine.
type spanLog struct {
	spans   []span
	dropped int
}

func (l *spanLog) add(kind uint8, req uint32, start, end int64) {
	if len(l.spans) >= maxSpans {
		l.dropped++
		return
	}
	l.spans = append(l.spans, span{kind: kind, req: req, start: start, end: end})
}

// spanStats summarises one connection's spans: the duration of each child
// kind and each request's self time (its duration minus the part of it
// its children cover).
type spanStats struct {
	dur      [len(spanNames)]sample // µs
	selfTime sample                 // µs, request spans
}

func (st *spanStats) addConn(logs ...*spanLog) {
	type reqSpans struct {
		req      span
		children []span
		have     bool
	}
	byReq := map[uint32]*reqSpans{}
	get := func(seq uint32) *reqSpans {
		r := byReq[seq]
		if r == nil {
			r = &reqSpans{}
			byReq[seq] = r
		}
		return r
	}
	for _, l := range logs {
		for _, s := range l.spans {
			if s.kind == spanProbe {
				continue
			}
			st.dur[s.kind].add(float64(s.end-s.start) / 1e3)
			r := get(s.req)
			if s.kind == spanRequest {
				r.req, r.have = s, true
			} else {
				r.children = append(r.children, s)
			}
		}
	}
	for _, r := range byReq {
		if r.have {
			st.selfTime.add(float64(selfTime(r.req, r.children)) / 1e3)
		}
	}
}

// selfTime is parent's duration minus the union of its children's
// intervals clipped to the parent.
func selfTime(parent span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		s, e := max(c.start, parent.start), min(c.end, parent.end)
		if e > s {
			iv = append(iv, [2]int64{s, e})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	covered := int64(0)
	curS, curE := int64(0), int64(-1)
	for _, x := range iv {
		if x[0] > curE {
			if curE > curS {
				covered += curE - curS
			}
			curS, curE = x[0], x[1]
		} else if x[1] > curE {
			curE = x[1]
		}
	}
	if curE > curS {
		covered += curE - curS
	}
	return parent.end - parent.start - covered
}

// writeSpans dumps every kept span as CSV, one file per traced run.
func writeSpans(path string, conns [][]*spanLog, probes *spanLog) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprintln(w, "conn,name,req,start_ns,end_ns")
	for ci, logs := range conns {
		for _, l := range logs {
			for _, s := range l.spans {
				fmt.Fprintf(w, "%d,%s,%d,%d,%d\n", ci, spanNames[s.kind], s.req, s.start, s.end)
			}
		}
	}
	for _, s := range probes.spans {
		fmt.Fprintf(w, "-1,%s,%d,%d,%d\n", probeNames[s.req], s.req, s.start, s.end)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
