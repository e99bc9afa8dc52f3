package obs

import (
	"sort"

	"bps/internal/sim"
)

// Series is one sampled time series: aligned timestamp/value slices.
type Series struct {
	Name   string
	Times  []sim.Time
	Values []float64
}

// Sampler is a periodic time-series collector: a simulation daemon that
// wakes every interval (on background events, so it never extends the
// run), evaluates every counter, gauge, and probe in the registry, and
// appends the values to per-metric series. Sources registered after the
// sampler starts are picked up at their first tick.
type Sampler struct {
	reg    *Registry
	every  sim.Time
	series map[string]*Series
	order  []string
	lastAt sim.Time // time of the most recent sample

	// sources is the registry's sources in sampling order, each bound
	// to its series, as of registry generation gen; a tick rebuilds it
	// only when a registration moved the generation.
	sources []source
	gen     uint64

	// onSample, when set, additionally receives every sampled value —
	// the observer uses it to emit Chrome counter tracks.
	onSample func(name string, at sim.Time, v float64)

	// onTick, when set, runs once at the end of every sample pass (the
	// periodic daemon ticks and the final Finish sample). It runs in
	// simulation context and must not consume simulated time — the live
	// observability hook publishes snapshots through it.
	onTick func(now sim.Time)
}

// StartSampler spawns the sampler daemon on e, ticking every interval.
// The daemon parks between ticks on background wake-ups: it samples only
// while workload (foreground) events keep the simulation alive, and
// Engine.Shutdown unwinds it like any other daemon.
func (r *Registry) StartSampler(e *sim.Engine, every sim.Time) *Sampler {
	if r == nil {
		return nil
	}
	if every <= 0 {
		every = 10 * sim.Millisecond
	}
	s := &Sampler{reg: r, every: every, series: make(map[string]*Series)}
	e.SpawnDaemon("obs.sampler", func(p *sim.Proc) {
		for {
			p.SleepBackground(every)
			s.sample(p.Now())
		}
	})
	return s
}

// Interval returns the sampling interval.
func (s *Sampler) Interval() sim.Time {
	if s == nil {
		return 0
	}
	return s.every
}

// Finish takes one final sample at now, unless a sample at or after now
// was already taken. The daemon's pending tick after the last foreground
// event never fires (background events alone don't advance the run), so
// without this the series silently stop at the penultimate interval;
// run teardown calls it via Observer.FinishSampling.
func (s *Sampler) Finish(now sim.Time) {
	if s == nil || now <= s.lastAt {
		return
	}
	s.sample(now)
}

// source is one registered counter, gauge or probe bound to the series
// it feeds.
type source struct {
	series *Series
	read   func() float64
}

// sample appends one data point per registered source at time now.
func (s *Sampler) sample(now sim.Time) {
	s.lastAt = now
	if s.gen != s.reg.Gen() {
		s.bindSources()
	}
	for _, src := range s.sources {
		s.record(src.series, now, src.read())
	}
	if s.onTick != nil {
		s.onTick(now)
	}
}

// bindSources rebuilds the sampling order: counters, then gauges, then
// probes, each sorted by name, so the onSample events (and the Chrome
// counter tracks built from them) come out in a fixed order.
func (s *Sampler) bindSources() {
	s.gen = s.reg.Gen()
	s.sources = s.sources[:0]
	add := func(name string, read func() float64) {
		sr, ok := s.series[name]
		if !ok {
			sr = &Series{Name: name}
			s.series[name] = sr
			s.order = append(s.order, name)
		}
		s.sources = append(s.sources, source{series: sr, read: read})
	}
	for _, c := range s.reg.Counters() {
		add(c.Name(), func() float64 { return float64(c.Value()) })
	}
	for _, g := range s.reg.Gauges() {
		add(g.Name(), g.Value)
	}
	for _, pr := range s.reg.Probes() {
		add(pr.Name, pr.Fn)
	}
}

func (s *Sampler) record(sr *Series, now sim.Time, v float64) {
	// Gap fill: a quiet stretch longer than the interval (a skipped
	// stretch of ticks, or a Finish long after the last tick) would
	// leave a hole in the series. Carry the previous value forward at
	// the sampling interval so every series stays continuous.
	if n := len(sr.Times); n > 0 {
		prev := sr.Values[n-1]
		for t := sr.Times[n-1] + s.every; t < now; t += s.every {
			sr.Times = append(sr.Times, t)
			sr.Values = append(sr.Values, prev)
			if s.onSample != nil {
				s.onSample(sr.Name, t, prev)
			}
		}
	}
	sr.Times = append(sr.Times, now)
	sr.Values = append(sr.Values, v)
	if s.onSample != nil {
		s.onSample(sr.Name, now, v)
	}
}

// Series returns the collected series sorted by name.
func (s *Sampler) Series() []*Series {
	if s == nil {
		return nil
	}
	names := append([]string(nil), s.order...)
	sort.Strings(names)
	out := make([]*Series, 0, len(names))
	for _, name := range names {
		out = append(out, s.series[name])
	}
	return out
}

// SeriesByName returns one series (nil when absent).
func (s *Sampler) SeriesByName(name string) *Series {
	if s == nil {
		return nil
	}
	return s.series[name]
}
