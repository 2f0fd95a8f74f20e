package traffic

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/url"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"whirlpool/internal/apiclient"
	"whirlpool/internal/stats"
)

// ClassReport is one request class's measured outcome.
type ClassReport struct {
	ID string `json:"id"`
	Op string `json:"op"`
	// Sent counts requests actually issued; Dropped counts scheduled
	// arrivals skipped because the class's workers could not keep up
	// (the backlog bound protects the open-loop schedule — a drop means
	// the offered rate exceeded what Concurrency could carry).
	Sent    int `json:"sent"`
	Dropped int `json:"dropped,omitempty"`
	// OK / Shed / Errors partition Sent: 2xx, back-pressure (429/503),
	// everything else.
	OK     int `json:"ok"`
	Shed   int `json:"shed"`
	Errors int `json:"errors"`
	// RPS is the achieved completion rate: OK / wall-clock.
	RPS float64 `json:"rps"`
	// Latency quantiles over OK requests, milliseconds (exact, from the
	// full sample set — not the server's bucketed estimates). Each
	// request is timed from its due time, the moment the schedule says
	// it should be sent, so a stall counts against every request queued
	// behind it instead of hiding their wait (coordinated omission).
	P50MS  float64 `json:"p50_ms"`
	P95MS  float64 `json:"p95_ms"`
	P99MS  float64 `json:"p99_ms"`
	MeanMS float64 `json:"mean_ms"`
	// LateP99MS is the generator's own lateness, send time minus due
	// time, at p99 over the sent arrivals: how far the schedule itself
	// slipped, apart from any wait for a free worker.
	LateP99MS float64 `json:"late_p99_ms"`
	// SLO / MinRPS echo the spec's targets; Violations holds one line
	// per breached target (empty = class passed).
	SLO        *SLO     `json:"slo,omitempty"`
	MinRPS     float64  `json:"min_rps,omitempty"`
	Violations []string `json:"violations,omitempty"`
	// SampleErrors holds up to three distinct error strings, so a
	// failing run's report says why.
	SampleErrors []string `json:"sample_errors,omitempty"`
}

// Report is a whole run's outcome.
type Report struct {
	Name      string        `json:"name,omitempty"`
	Base      string        `json:"base"`
	DurationS float64       `json:"duration_s"`
	Seed      uint64        `json:"seed"`
	Classes   []ClassReport `json:"classes"`
}

// Check returns a single error summarizing every SLO and floor
// violation in the report, or nil when all classes passed.
func (r *Report) Check() error {
	var all []string
	for i := range r.Classes {
		all = append(all, r.Classes[i].Violations...)
	}
	if len(all) == 0 {
		return nil
	}
	return fmt.Errorf("traffic: %d SLO violation(s): %s", len(all), joinLines(all))
}

func joinLines(ss []string) string {
	out := ""
	for i, s := range ss {
		if i > 0 {
			out += "; "
		}
		out += s
	}
	return out
}

// WriteTable renders the report as an aligned text table (whirltool
// load's default output).
func (r *Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "target %s  duration %.1fs  seed %d\n", r.Base, r.DurationS, r.Seed)
	fmt.Fprintf(w, "%-12s %-8s %8s %8s %6s %6s %9s %9s %9s %9s  %s\n",
		"class", "op", "sent", "ok", "shed", "err", "rps", "p50ms", "p95ms", "p99ms", "slo")
	for i := range r.Classes {
		c := &r.Classes[i]
		verdict := "-"
		if c.SLO != nil || c.MinRPS > 0 {
			verdict = "pass"
			if len(c.Violations) > 0 {
				verdict = "FAIL"
			}
		}
		fmt.Fprintf(w, "%-12s %-8s %8d %8d %6d %6d %9.1f %9.2f %9.2f %9.2f  %s\n",
			c.ID, c.Op, c.Sent, c.OK, c.Shed, c.Errors, c.RPS, c.P50MS, c.P95MS, c.P99MS, verdict)
		for _, v := range c.Violations {
			fmt.Fprintf(w, "  ! %s\n", v)
		}
		for _, e := range c.SampleErrors {
			fmt.Fprintf(w, "  · error: %s\n", e)
		}
	}
}

// Options tune a run.
type Options struct {
	// Duration overrides the spec's duration_s when positive.
	Duration time.Duration
	// Seed overrides the spec's seed when non-zero.
	Seed uint64
	// Logf, when set, receives progress lines.
	Logf func(format string, args ...any)
}

// backlogBound caps how many scheduled arrivals may queue ahead of a
// class's workers before the generator starts dropping (and counting)
// them instead of distorting the arrival process by blocking.
const backlogBound = 1024

// Run drives the spec against the daemon behind api and reports per
// class. The context cancels the run early (the report covers what ran).
func Run(ctx context.Context, api *apiclient.Client, spec *Spec, opt Options) (*Report, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	d := spec.Duration(opt.Duration)
	seed := spec.Seed
	if opt.Seed != 0 {
		seed = opt.Seed
	}
	logf := opt.Logf
	if logf == nil {
		logf = func(string, ...any) {}
	}
	logf("traffic: %d classes against %s for %s (seed %d)", len(spec.Clients), api.Base(), d, seed)

	start := time.Now()
	var wg sync.WaitGroup
	reports := make([]*ClassReport, len(spec.Clients))
	for i := range spec.Clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			reports[i] = runClass(ctx, api, seed, &spec.Clients[i], d, start)
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)

	rep := &Report{
		Name: spec.Name, Base: api.Base(),
		DurationS: elapsed.Seconds(), Seed: seed,
	}
	for _, cr := range reports {
		rep.Classes = append(rep.Classes, *cr)
	}
	sort.Slice(rep.Classes, func(a, b int) bool { return rep.Classes[a].ID < rep.Classes[b].ID })
	return rep, nil
}

// classState accumulates one class's outcomes across its workers.
type classState struct {
	mu        sync.Mutex
	latMS     []float64
	ok        int
	shed      int
	errs      int
	errSample []string
}

func (st *classState) record(latMS float64, err error) {
	st.mu.Lock()
	defer st.mu.Unlock()
	if err == nil {
		st.ok++
		st.latMS = append(st.latMS, latMS)
		return
	}
	var ae *apiclient.Error
	if errors.As(err, &ae) && ae.Temporary() {
		st.shed++
		return
	}
	st.errs++
	msg := err.Error()
	for _, s := range st.errSample {
		if s == msg {
			return
		}
	}
	if len(st.errSample) < 3 {
		st.errSample = append(st.errSample, msg)
	}
}

// runClass drives one class: a deterministic arrival generator feeding
// Concurrency workers, each issuing the class's request through api.
func runClass(ctx context.Context, api *apiclient.Client, seed uint64, c *Client, d time.Duration, start time.Time) *ClassReport {
	workers := c.Concurrency
	if workers <= 0 {
		workers = 1
	}
	// Each tick carries its arrival's due time; latency runs from it.
	ticks := make(chan time.Time, backlogBound)
	var dropped, sent atomic.Int64

	// Generator: walk the deterministic schedule in real time. lateMS is
	// its own; it is read only after genDone closes.
	var lateMS []float64
	genDone := make(chan struct{})
	go func() {
		defer close(genDone)
		defer close(ticks)
		ar := newArrivals(seed, c)
		timer := time.NewTimer(0)
		defer timer.Stop()
		<-timer.C
		for {
			off := ar.next()
			if off >= d {
				return
			}
			due := start.Add(off)
			if wait := time.Until(due); wait > 0 {
				timer.Reset(wait)
				select {
				case <-ctx.Done():
					return
				case <-timer.C:
				}
			} else if ctx.Err() != nil {
				return
			}
			select {
			case ticks <- due:
				lateMS = append(lateMS, msSince(due))
			default:
				dropped.Add(1)
			}
		}
	}()

	st := &classState{}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for due := range ticks {
				if ctx.Err() != nil {
					return
				}
				sent.Add(1)
				err := issue(ctx, api, c)
				st.record(msSince(due), err)
			}
		}()
	}
	wg.Wait()
	<-genDone
	elapsed := time.Since(start)

	cr := &ClassReport{
		ID: c.ID, Op: string(c.Op),
		Sent: int(sent.Load()), Dropped: int(dropped.Load()),
		OK: st.ok, Shed: st.shed, Errors: st.errs,
		SLO: c.SLO, MinRPS: c.MinRPS, SampleErrors: st.errSample,
	}
	if secs := elapsed.Seconds(); secs > 0 {
		cr.RPS = float64(st.ok) / secs
	}
	cr.P50MS = stats.Percentile(st.latMS, 50)
	cr.P95MS = stats.Percentile(st.latMS, 95)
	cr.P99MS = stats.Percentile(st.latMS, 99)
	cr.LateP99MS = stats.Percentile(lateMS, 99)
	if len(st.latMS) > 0 {
		sum := 0.0
		for _, v := range st.latMS {
			sum += v
		}
		cr.MeanMS = sum / float64(len(st.latMS))
	}
	cr.Violations = judge(cr)
	return cr
}

// msSince returns the milliseconds elapsed since t, at microsecond
// resolution.
func msSince(t time.Time) float64 {
	return float64(time.Since(t).Microseconds()) / 1000
}

// judge compares a class's measurements against its targets.
func judge(cr *ClassReport) []string {
	var out []string
	if cr.SLO != nil && cr.OK > 0 {
		for _, t := range []struct {
			target, got float64
			name        string
		}{
			{cr.SLO.P50MS, cr.P50MS, "p50"},
			{cr.SLO.P95MS, cr.P95MS, "p95"},
			{cr.SLO.P99MS, cr.P99MS, "p99"},
		} {
			if t.target > 0 && t.got > t.target {
				out = append(out, fmt.Sprintf("%s: %s %.2fms exceeds SLO %gms", cr.ID, t.name, t.got, t.target))
			}
		}
	}
	if cr.SLO != nil && cr.OK == 0 && cr.Sent > 0 {
		out = append(out, fmt.Sprintf("%s: no successful requests to judge against its SLO", cr.ID))
	}
	if cr.MinRPS > 0 && cr.RPS < cr.MinRPS {
		out = append(out, fmt.Sprintf("%s: achieved %.1f rps below floor %g", cr.ID, cr.RPS, cr.MinRPS))
	}
	return out
}

// issue sends one request for the class and returns its outcome.
func issue(ctx context.Context, api *apiclient.Client, c *Client) error {
	switch c.Op {
	case OpResults:
		path := "/v1/results"
		if len(c.Params) > 0 {
			q := url.Values{}
			for k, v := range c.Params {
				q.Set(k, v)
			}
			path += "?" + q.Encode()
		}
		return api.Do(ctx, "GET", path, nil, nil)
	case OpJobs:
		return api.Do(ctx, "GET", "/v1/jobs", nil, nil)
	case OpSweep:
		var out struct {
			ID string `json:"id"`
		}
		if err := api.PostJSON(ctx, "/v1/sweeps", c.Sweep, &out); err != nil {
			return err
		}
		if !c.Wait || out.ID == "" {
			return nil
		}
		// Poll to a terminal state: the latency then covers the whole
		// warm resubmit, store lookup included.
		for {
			var job struct {
				State string `json:"state"`
			}
			if err := api.GetJSON(ctx, "/v1/jobs/"+out.ID, &job); err != nil {
				return err
			}
			switch job.State {
			case "done":
				return nil
			case "failed", "canceled":
				return fmt.Errorf("traffic: sweep job %s finished %s", out.ID, job.State)
			}
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(5 * time.Millisecond):
			}
		}
	}
	return fmt.Errorf("traffic: unknown op %q", c.Op)
}
