package obs

import "bps/internal/sim"

// Sampler is a periodic streaming collector: a simulation daemon that
// wakes every interval (on background events, so it never extends the
// run), reads the registry's counters, then its probes, and hands each
// value to its consumers. It stores no series: per source it keeps
// only the last sample, which the gap fill carries forward. Sources
// registered after the sampler starts are picked up at their first tick.
type Sampler struct {
	reg    *Registry
	every  sim.Time
	lastAt sim.Time // time of the most recent sample

	// last holds each source's most recent sample by name; it outlives
	// the rebuilds of sources, which point into it.
	last map[string]*lastSample

	// sources is the registry's sources in sampling order, each bound
	// to its last sample, as of registry generation gen; a tick rebuilds
	// it only when a registration moved the generation.
	sources []source
	gen     uint64

	// onSample, when set, receives every sampled value, gap fillers
	// included — the observer uses it to emit Chrome counter tracks.
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
	s := &Sampler{reg: r, every: every, last: make(map[string]*lastSample)}
	e.SpawnDaemon("obs.sampler", func(p *sim.Proc) {
		for {
			p.SleepBackground(every)
			s.sample(p.Now())
		}
	})
	return s
}

// Finish takes one final sample at now, unless a sample at or after now
// was already taken. The daemon's pending tick after the last foreground
// event never fires (background events alone don't advance the run), so
// without this the samples silently stop at the penultimate interval;
// run teardown calls it via Observer.FinishSampling.
func (s *Sampler) Finish(now sim.Time) {
	if s == nil || now <= s.lastAt {
		return
	}
	s.sample(now)
}

// lastSample is one source's most recent sample. Sample times are always
// positive, so at == 0 means the source has not been sampled yet.
type lastSample struct {
	name string
	at   sim.Time
	v    float64
}

// source is one registered counter or probe bound to its last
// sample.
type source struct {
	last *lastSample
	read func() float64
}

// sample reads every registered source at time now.
func (s *Sampler) sample(now sim.Time) {
	s.lastAt = now
	if s.gen != s.reg.Gen() {
		s.bindSources()
	}
	for _, src := range s.sources {
		s.emit(src.last, now, src.read())
	}
	if s.onTick != nil {
		s.onTick(now)
	}
}

// bindSources rebuilds the sampling order: counters, then probes, each
// sorted by name, so the onSample events (and the Chrome
// counter tracks built from them) come out in a fixed order.
func (s *Sampler) bindSources() {
	s.gen = s.reg.Gen()
	s.sources = s.sources[:0]
	add := func(name string, read func() float64) {
		ls, ok := s.last[name]
		if !ok {
			ls = &lastSample{name: name}
			s.last[name] = ls
		}
		s.sources = append(s.sources, source{last: ls, read: read})
	}
	for _, c := range s.reg.Counters() {
		add(c.Name(), func() float64 { return float64(c.Value()) })
	}
	for _, pr := range s.reg.Probes() {
		add(pr.Name, pr.Fn)
	}
}

// emit hands one sample to onSample and remembers it as ls's last.
func (s *Sampler) emit(ls *lastSample, now sim.Time, v float64) {
	// Gap fill: a quiet stretch longer than the interval (a skipped
	// stretch of ticks, or a Finish long after the last tick) would
	// leave a hole in the stream. Carry the previous value forward at
	// the sampling interval so every counter track stays continuous.
	if s.onSample != nil {
		if ls.at > 0 {
			for t := ls.at + s.every; t < now; t += s.every {
				s.onSample(ls.name, t, ls.v)
			}
		}
		s.onSample(ls.name, now, v)
	}
	ls.at, ls.v = now, v
}
