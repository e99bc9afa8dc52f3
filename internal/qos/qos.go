// Package qos is the multi-tenant quality-of-service subsystem: it
// computes per-tenant windowed BPS/IOPS/BW/ARPT series with the attrib
// window estimator, scores cross-tenant interference LASSi-style (a
// tenant's risk is its share of I/O-time occupancy versus its share of
// the delivered metric), and closes the first control loop over the
// paper's metric — a token-bucket admission middleware that delays or
// sheds low-priority tenants' requests whenever a protected tenant's
// windowed block rate drops below its configured floor.
//
// Everything here runs inside the simulation: the throttle delays are
// sim.Proc sleeps, the control law is evaluated at access-completion
// events, and all state is touched only by tenant procs under the
// engine's alternation discipline — so the subsystem is deterministic
// by construction (same seed, same schedule, bit-identical results).
package qos

import (
	"errors"
	"fmt"

	"bps/internal/core"
	"bps/internal/ioreq"
	"bps/internal/sim"
	"bps/internal/trace"
)

// ErrShed is returned (wrapped) for requests rejected by admission
// control while a tenant is in shed mode. Shed accesses count as failed
// application accesses — which, per the paper's §III.A, still count in
// B.
var ErrShed = errors.New("qos: request shed by admission control")

// Config parameterizes the controller. The zero value disables QoS
// entirely: Middleware returns nil and the request path is exactly the
// pre-QoS pipeline.
type Config struct {
	// Enabled turns the control loop on.
	Enabled bool

	// WindowEvery is the control window width (default 10 ms): the
	// protected tenant's delivered block rate is evaluated once per
	// window, at the first completion past the window's end.
	WindowEvery sim.Time

	// Backoff multiplies a throttled tenant's rate limit on each
	// violated window (default 0.5 — multiplicative decrease).
	Backoff float64

	// Recover multiplies a throttled tenant's rate limit on each clean
	// window (default 1.25 — slow multiplicative recovery). A tenant is
	// released once its limit climbs back above its observed peak rate.
	Recover float64

	// MinRate is the floor of any rate limit in blocks/second (default
	// 128). A throttled tenant always trickles at least this fast unless
	// it is shedding.
	MinRate float64

	// BurstBlocks is the token-bucket depth in blocks (default 64):
	// how much a throttled tenant may burst after an idle period.
	BurstBlocks float64

	// ShedAfter is the number of consecutive violated windows a tenant
	// must spend pinned at MinRate before admission control starts
	// shedding its requests outright (default 8). Shedding clears on the
	// first clean window.
	ShedAfter int
}

func (c Config) withDefaults() Config {
	if c.WindowEvery <= 0 {
		c.WindowEvery = 10 * sim.Millisecond
	}
	if c.Backoff <= 0 || c.Backoff >= 1 {
		c.Backoff = 0.5
	}
	if c.Recover <= 1 {
		c.Recover = 1.25
	}
	if c.MinRate <= 0 {
		c.MinRate = 128
	}
	if c.BurstBlocks <= 0 {
		c.BurstBlocks = 64
	}
	if c.ShedAfter <= 0 {
		c.ShedAfter = 8
	}
	return c
}

// Tenant is one tenant's identity and service contract.
type Tenant struct {
	// Name identifies the tenant; it is stamped on every ioreq.Request
	// the tenant issues (and therefore on every trace span).
	Name string

	// Priority orders tenants: when a protected tenant's floor is
	// violated, only tenants with strictly lower priority are throttled.
	Priority int

	// BPSFloor, when positive, marks the tenant as protected: the
	// controller throttles lower-priority tenants whenever this tenant's
	// windowed delivered rate falls below the floor (blocks/second).
	BPSFloor float64
}

// tenantState is the controller's per-tenant mutable state. It is only
// ever touched from tenant procs on the controller's engine, so the
// engine's alternation discipline makes access race-free.
type tenantState struct {
	t   Tenant
	est *core.WindowEstimator // report series (exact Busy union)

	// Per-window delivered blocks on the control grid, indexed by
	// window; grown on demand. The control law reads these — O(1) per
	// access, unlike the estimator's O(n log n) union.
	wblk []int64

	inflight int // requests currently between admission and completion

	// Token bucket in virtual time: creditAt is the time at which the
	// tenant's spent credit is fully repaid at the current rate. The
	// virtual-scheduling form needs no background refill proc and
	// cannot double-spend under concurrent admissions.
	limited  bool
	rate     float64 // blocks/second while limited
	creditAt sim.Time

	peakRate float64 // highest clean-window delivered rate observed
	atMin    int     // consecutive violated windows pinned at MinRate
	shedding bool

	// Counters surfaced in the report.
	delayed   int64    // requests delayed by the throttle
	delaySim  sim.Time // total simulated delay injected
	shed      int64    // requests rejected in shed mode
	ops       int64
	blocks    int64
	sumDur    sim.Time // Σ access durations (occupancy integral)
	firstSeen bool
}

// Controller drives admission control for one engine run. Build it with
// NewController, wrap each tenant's pipeline with Middleware, and read
// Report/Scores after the engine drains.
type Controller struct {
	cfg     Config
	order   []*tenantState // insertion order (report order)
	byName  map[string]*tenantState
	prot    *tenantState // the protected tenant (highest-priority floor)
	nextWin int          // first control window not yet evaluated

	activations int64 // violated windows acted on
}

// NewController builds a controller over the given tenants. The
// protected tenant is the one with a positive BPSFloor; when several
// declare floors, the highest-priority one wins (ties by declaration
// order).
func NewController(cfg Config, tenants ...Tenant) (*Controller, error) {
	c := &Controller{
		cfg:    cfg.withDefaults(),
		byName: make(map[string]*tenantState, len(tenants)),
	}
	for _, t := range tenants {
		if t.Name == "" {
			return nil, fmt.Errorf("qos: tenant with empty name")
		}
		if c.byName[t.Name] != nil {
			return nil, fmt.Errorf("qos: duplicate tenant %q", t.Name)
		}
		st := &tenantState{t: t, est: core.NewWindowEstimator(c.cfg.WindowEvery)}
		c.order = append(c.order, st)
		c.byName[t.Name] = st
		if t.BPSFloor > 0 && (c.prot == nil || t.Priority > c.prot.t.Priority) {
			c.prot = st
		}
	}
	return c, nil
}

// Enabled reports whether the control loop is on.
func (c *Controller) Enabled() bool { return c != nil && c.cfg.Enabled }

// Middleware returns the admission-control layer for the named tenant.
// It stamps the tenant identity on every request even when the control
// loop is disabled (identity threads through traces regardless); with
// QoS off the middleware adds nothing else to the pipeline's behavior.
// Unknown tenant names panic: they indicate a wiring bug.
func (c *Controller) Middleware(name string) ioreq.Middleware {
	st := c.byName[name]
	if st == nil {
		panic(fmt.Sprintf("qos: Middleware for unknown tenant %q", name))
	}
	return func(next ioreq.Layer) ioreq.Layer {
		return ioreq.Func(func(p *sim.Proc, req *ioreq.Request) error {
			return c.serve(st, next, p, req)
		})
	}
}

// serve is the admission path for one tenant request: stamp identity,
// shed or delay per the tenant's current regime, run the pipeline, and
// account the completion into the tenant's windows and the control law.
// With QoS disabled the windows and scores are still accounted — they
// are pure observations — but the control law never runs and the
// timeline is untouched.
func (c *Controller) serve(st *tenantState, next ioreq.Layer, p *sim.Proc, req *ioreq.Request) error {
	req.Tenant = st.t.Name
	start := p.Now() // admission delay counts in the tenant's ARPT
	blocks := trace.BlocksOf(req.Size)
	if c.cfg.Enabled && st != c.prot {
		st.inflight++
		if st.shedding {
			st.inflight--
			st.shed++
			c.complete(st, blocks, start, p.Now())
			return fmt.Errorf("qos: tenant %q: %w", st.t.Name, ErrShed)
		}
		if st.limited {
			c.admit(st, p, blocks)
		}
		err := next.Serve(p, req)
		st.inflight--
		c.complete(st, blocks, start, p.Now())
		return err
	}
	if c.cfg.Enabled {
		st.inflight++
	}
	err := next.Serve(p, req)
	if c.cfg.Enabled {
		st.inflight--
	}
	c.complete(st, blocks, start, p.Now())
	return err
}

// admit charges blocks against st's token bucket, sleeping until the
// virtual finish time when the bucket is empty. The bucket is expressed
// as the time creditAt at which spent credit is repaid: a tenant idle
// long enough accumulates at most BurstBlocks of credit.
func (c *Controller) admit(st *tenantState, p *sim.Proc, blocks int64) {
	now := p.Now()
	floor := now - sim.Time(c.cfg.BurstBlocks/st.rate*float64(sim.Second))
	if st.creditAt < floor {
		st.creditAt = floor
	}
	st.creditAt += sim.Time(float64(blocks) / st.rate * float64(sim.Second))
	if d := st.creditAt - now; d > 0 {
		st.delayed++
		st.delaySim += d
		p.Sleep(d)
	}
}

// complete accounts one finished (or shed) access and advances the
// control law over every window that has fully closed.
func (c *Controller) complete(st *tenantState, blocks int64, start, end sim.Time) {
	st.est.Add(blocks, start, end)
	st.ops++
	st.blocks += blocks
	st.sumDur += end - start
	st.firstSeen = true
	idx := int(end / c.cfg.WindowEvery)
	if end == sim.Time(idx)*c.cfg.WindowEvery && idx > 0 {
		idx-- // boundary completion belongs to the left window
	}
	for len(st.wblk) <= idx {
		st.wblk = append(st.wblk, 0)
	}
	st.wblk[idx] += blocks
	c.evaluate(end)
}

// evaluate runs the control law over every control window whose end is
// strictly in the past — a window only closes once a later completion
// proves no more work can land in it.
func (c *Controller) evaluate(now sim.Time) {
	if !c.cfg.Enabled || c.prot == nil {
		return
	}
	w := c.cfg.WindowEvery
	for sim.Time(c.nextWin+1)*w < now {
		k := c.nextWin
		c.nextWin++
		c.evalWindow(k)
	}
}

// winBlocks returns st's delivered blocks in control window k.
func (st *tenantState) winBlocks(k int) int64 {
	if k < 0 || k >= len(st.wblk) {
		return 0
	}
	return st.wblk[k]
}

// evalWindow applies the control law to one closed window: violation →
// back off every lower-priority tenant; clean → recover them. Windows
// where the protected tenant is idle with nothing in flight (not yet
// started, compute phase, or finished) are clean: protection ends when
// the protected tenant no longer needs the bandwidth.
func (c *Controller) evalWindow(k int) {
	delivered := float64(c.prot.winBlocks(k)) / c.cfg.WindowEvery.Seconds()
	violated := delivered < c.prot.t.BPSFloor
	if violated && c.prot.winBlocks(k) == 0 && c.prot.inflight == 0 && !pending(c.prot, k) {
		violated = false
	}
	if violated {
		c.activations++
	}
	for _, st := range c.order {
		if st == c.prot || st.t.Priority >= c.prot.t.Priority {
			// Track peaks for everyone so release thresholds exist even
			// for tenants that are throttled later.
			st.notePeak(k, c.cfg.WindowEvery)
			continue
		}
		if violated {
			c.clamp(st, k)
		} else {
			st.notePeak(k, c.cfg.WindowEvery)
			c.recover(st)
		}
	}
}

// pending reports whether the protected tenant completed work in any
// window at or after k — a zero window with later completions means the
// tenant was starved mid-run, not finished.
func pending(st *tenantState, k int) bool {
	for i := k; i < len(st.wblk); i++ {
		if st.wblk[i] > 0 {
			return true
		}
	}
	return false
}

// notePeak records st's delivered rate in clean window k as a release
// threshold candidate.
func (st *tenantState) notePeak(k int, w sim.Time) {
	r := float64(st.winBlocks(k)) / w.Seconds()
	if r > st.peakRate {
		st.peakRate = r
	}
}

// bucketFull is the creditAt sentinel of a freshly-limited tenant: far
// enough in the past that the first admit clamps it to a full burst.
const bucketFull = sim.Time(-1 << 62)

// clamp backs off one tenant after a violated window.
func (c *Controller) clamp(st *tenantState, k int) {
	if !st.limited {
		st.limited = true
		st.creditAt = bucketFull
		base := float64(st.winBlocks(k)) / c.cfg.WindowEvery.Seconds()
		if base <= 0 {
			base = st.peakRate
		}
		st.rate = base * c.cfg.Backoff
	} else {
		st.rate *= c.cfg.Backoff
	}
	if st.rate <= c.cfg.MinRate {
		st.rate = c.cfg.MinRate
		st.atMin++
		if st.atMin >= c.cfg.ShedAfter {
			st.shedding = true
		}
	} else {
		st.atMin = 0
	}
}

// recover relaxes one tenant after a clean window, releasing it once
// its limit climbs back above the fastest rate it has ever delivered —
// past that point the limit no longer binds.
func (c *Controller) recover(st *tenantState) {
	st.atMin = 0
	st.shedding = false
	if !st.limited {
		return
	}
	st.rate *= c.cfg.Recover
	if st.peakRate > 0 && st.rate >= st.peakRate {
		st.limited = false
	}
}

// Score is one tenant's LASSi-style interference rating: its share of
// the run's I/O-time occupancy (Σ access durations, the Little's-law
// integral of its queue presence) against its share of the delivered
// blocks. Risk > 1 means the tenant occupies more of the system than
// the service it extracts — the signature of an interfering workload
// (small random requests seeking a disk another tenant streams from).
type Score struct {
	Name           string  `json:"name"`
	Priority       int     `json:"priority"`
	OccupancyShare float64 `json:"occupancy_share"`
	MetricShare    float64 `json:"metric_share"`
	Risk           float64 `json:"risk"`
}

// Scores computes the per-tenant interference scores over the whole
// run, in tenant declaration order.
func (c *Controller) Scores() []Score {
	var totDur sim.Time
	var totBlk int64
	for _, st := range c.order {
		totDur += st.sumDur
		totBlk += st.blocks
	}
	out := make([]Score, len(c.order))
	for i, st := range c.order {
		s := Score{Name: st.t.Name, Priority: st.t.Priority}
		if totDur > 0 {
			s.OccupancyShare = float64(st.sumDur) / float64(totDur)
		}
		if totBlk > 0 {
			s.MetricShare = float64(st.blocks) / float64(totBlk)
		}
		if s.MetricShare > 0 {
			s.Risk = s.OccupancyShare / s.MetricShare
		}
		out[i] = s
	}
	return out
}

// TenantReport is one tenant's QoS outcome.
type TenantReport struct {
	Name     string  `json:"name"`
	Priority int     `json:"priority"`
	BPSFloor float64 `json:"bps_floor,omitempty"`

	Ops    int64 `json:"ops"`
	Blocks int64 `json:"blocks"`

	// Windows is the tenant's windowed BPS/IOPS/BW/ARPT series from the
	// attrib estimator (exact per-window busy union).
	Windows []core.Window `json:"windows,omitempty"`

	Delayed      int64   `json:"delayed"`       // requests the throttle delayed
	DelaySeconds float64 `json:"delay_seconds"` // total simulated delay injected
	Shed         int64   `json:"shed"`          // requests rejected in shed mode
	Throttled    bool    `json:"throttled"`     // still rate-limited at run end
	RateLimit    float64 `json:"rate_limit"`    // blocks/s limit at run end (0 = none)
	Score        Score   `json:"score"`         // interference rating
}

// Report is the controller's end-of-run summary.
type Report struct {
	Enabled     bool           `json:"enabled"`
	WindowEvery float64        `json:"window_every_seconds"`
	Activations int64          `json:"activations"` // violated windows acted on
	Tenants     []TenantReport `json:"tenants"`
}

// Report assembles the end-of-run summary. Call it after the engine has
// drained.
func (c *Controller) Report() *Report {
	rep := &Report{
		Enabled:     c.cfg.Enabled,
		WindowEvery: c.cfg.WindowEvery.Seconds(),
		Activations: c.activations,
	}
	scores := c.Scores()
	for i, st := range c.order {
		tr := TenantReport{
			Name:         st.t.Name,
			Priority:     st.t.Priority,
			BPSFloor:     st.t.BPSFloor,
			Ops:          st.ops,
			Blocks:       st.blocks,
			Windows:      st.est.Windows(),
			Delayed:      st.delayed,
			DelaySeconds: st.delaySim.Seconds(),
			Shed:         st.shed,
			Throttled:    st.limited,
			Score:        scores[i],
		}
		if st.limited {
			tr.RateLimit = st.rate
		}
		rep.Tenants = append(rep.Tenants, tr)
	}
	return rep
}
