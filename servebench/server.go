package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/trace"
	"repro/internal/wire"
)

// serverProc is one dbserve child process.
type serverProc struct {
	cmd     *exec.Cmd
	addr    string // wire endpoint
	metrics string // HTTP endpoint (/statsz, /tracez)
	lines   chan string
	done    chan struct{} // closed once stdout reaches EOF
	log     *os.File
	stopped bool
}

// startServer spawns bin with args plus loopback listeners on free ports
// and returns once both addresses are announced on its stdout.
func startServer(bin string, args []string, logPath string) (*serverProc, error) {
	lf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	args = append([]string{"-addr", "127.0.0.1:0", "-metrics-addr", "127.0.0.1:0"}, args...)
	cmd := exec.Command(bin, args...)
	cmd.Stderr = lf
	out, err := cmd.StdoutPipe()
	if err != nil {
		lf.Close()
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		lf.Close()
		return nil, fmt.Errorf("start %s: %w", bin, err)
	}
	// The buffer holds the few start-up lines printed before the two
	// address announcements; later lines are only logged.
	p := &serverProc{cmd: cmd, lines: make(chan string, 16), done: make(chan struct{}), log: lf}
	go func() {
		defer close(p.done)
		sc := bufio.NewScanner(out)
		for sc.Scan() {
			line := sc.Text()
			fmt.Fprintln(lf, line)
			select {
			case p.lines <- line:
			default: // announcements are read early; later lines only go to the log
			}
		}
	}()
	deadline := time.After(30 * time.Second)
	for p.addr == "" || p.metrics == "" {
		select {
		case line := <-p.lines:
			if v, ok := strings.CutPrefix(line, "dbserve: serving on "); ok {
				p.addr = strings.Fields(v)[0]
			}
			if v, ok := strings.CutPrefix(line, "dbserve: metrics on "); ok {
				p.metrics = strings.TrimSpace(v)
			}
		case <-p.done:
			p.stop()
			return nil, fmt.Errorf("dbserve exited before serving (see %s)", logPath)
		case <-deadline:
			p.stop()
			return nil, fmt.Errorf("dbserve did not announce its addresses within 30s (see %s)", logPath)
		}
	}
	return p, nil
}

// waitHealthy polls HEALTH until the server answers it.
func (p *serverProc) waitHealthy(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for {
		c, err := wire.Dial(p.addr)
		if err == nil {
			_, err = c.Health()
			c.Close()
			if err == nil {
				return nil
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("server not healthy after %v: %w", timeout, err)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// stop asks for a graceful drain (SIGTERM), waits for the process to exit,
// and kills it if the drain overruns. It returns the exit error.
func (p *serverProc) stop() error {
	if p.stopped {
		return nil
	}
	p.stopped = true
	defer p.log.Close()
	_ = p.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-p.done:
	case <-time.After(30 * time.Second):
		_ = p.cmd.Process.Kill()
		<-p.done
	}
	return p.cmd.Wait()
}

// peakRSSMB reads the server's VmHWM (peak resident set) in MiB.
func (p *serverProc) peakRSSMB() (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", p.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			f := strings.Fields(v)
			kb, err := strconv.ParseFloat(f[0], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

func httpGet(url string) ([]byte, error) {
	resp, err := http.Get(url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return body, nil
}

// promHist is one histogram of a Prometheus exposition: cumulative bucket
// counts under ascending bounds (the last +Inf).
type promHist struct {
	bounds, cum []float64
	sum, count  float64
}

// promSnap is a parsed /statsz?format=prom document.
type promSnap struct {
	at     time.Time
	scalar map[string]float64
	hist   map[string]*promHist
}

func (p *serverProc) scrape() (*promSnap, error) {
	body, err := httpGet("http://" + p.metrics + "/statsz?format=prom")
	if err != nil {
		return nil, err
	}
	return parseProm(string(body), time.Now())
}

func parseProm(doc string, at time.Time) (*promSnap, error) {
	s := &promSnap{at: at, scalar: map[string]float64{}, hist: map[string]*promHist{}}
	for _, line := range strings.Split(doc, "\n") {
		if line == "" {
			continue
		}
		if rest, ok := strings.CutPrefix(line, "# TYPE "); ok {
			f := strings.Fields(rest)
			if len(f) == 2 && f[1] == "histogram" {
				s.hist[f[0]] = &promHist{}
			}
			continue
		}
		sp := strings.LastIndexByte(line, ' ')
		if sp < 0 {
			return nil, fmt.Errorf("prom: malformed line %q", line)
		}
		name, val := line[:sp], line[sp+1:]
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("prom: %q: %w", line, err)
		}
		if i := strings.Index(name, "_bucket{le=\""); i >= 0 {
			h := s.hist[name[:i]]
			if h == nil {
				return nil, fmt.Errorf("prom: bucket before TYPE in %q", line)
			}
			le := strings.TrimSuffix(name[i+len("_bucket{le=\""):], "\"}")
			b := math.Inf(1)
			if le != "+Inf" {
				if b, err = strconv.ParseFloat(le, 64); err != nil {
					return nil, fmt.Errorf("prom: %q: %w", line, err)
				}
			}
			h.bounds = append(h.bounds, b)
			h.cum = append(h.cum, v)
			continue
		}
		if base, ok := strings.CutSuffix(name, "_sum"); ok && s.hist[base] != nil {
			s.hist[base].sum = v
			continue
		}
		if base, ok := strings.CutSuffix(name, "_count"); ok && s.hist[base] != nil {
			s.hist[base].count = v
			continue
		}
		s.scalar[name] = v
	}
	return s, nil
}

// window is the change in the server's metrics between two scrapes.
type window struct{ a, b *promSnap }

func (w window) secs() float64 { return w.b.at.Sub(w.a.at).Seconds() }

func (w window) delta(name string) float64 { return w.b.scalar[name] - w.a.scalar[name] }

// histDelta returns the window-only bucket counts of a histogram.
func (w window) histDelta(name string) *promHist {
	hb := w.b.hist[name]
	if hb == nil {
		return &promHist{}
	}
	d := &promHist{bounds: hb.bounds, cum: append([]float64(nil), hb.cum...), sum: hb.sum, count: hb.count}
	if ha := w.a.hist[name]; ha != nil && len(ha.cum) == len(hb.cum) {
		for i := range d.cum {
			d.cum[i] -= ha.cum[i]
		}
		d.sum -= ha.sum
		d.count -= ha.count
	}
	return d
}

func (h *promHist) quantile(q float64) (float64, bool) { return histQuantile(h.bounds, h.cum, q) }

func (h *promHist) mean() float64 {
	if h.count <= 0 {
		return 0
	}
	return h.sum / h.count
}

// journal collects the inject-shot and finding events the server's
// recorder retains, keyed by recorder sequence so repeated fetches merge.
type journal map[uint64]trace.Event

func (p *serverProc) fetchJournal(j journal) error {
	for _, kind := range []string{"inject-shot", "finding"} {
		body, err := httpGet("http://" + p.metrics + "/tracez?kind=" + kind)
		if err != nil {
			return err
		}
		var evs []trace.Event
		if err := json.Unmarshal(body, &evs); err != nil {
			return fmt.Errorf("tracez %s: %w", kind, err)
		}
		for _, ev := range evs {
			j[ev.Seq] = ev
		}
	}
	return nil
}
