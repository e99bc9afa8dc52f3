package ioreq

import (
	"bps/internal/obs"
	"bps/internal/sim"
)

// Trace returns a middleware that opens one Chrome-trace span per
// request under category cat with the given span name, carrying the
// request's op, offset and size. The observability layer adds the
// threading "req" argument from the proc's request context, so the span
// joins the access's end-to-end span chain. On an uninstrumented engine
// the middleware is free of allocations and side effects.
func Trace(e *sim.Engine, cat, name string) Middleware {
	o := obs.Get(e)
	return func(next Layer) Layer {
		return Func(func(p *sim.Proc, req *Request) error {
			if !o.Spanning() {
				return next.Serve(p, req)
			}
			var args map[string]any
			if o.Tracing() {
				args = map[string]any{
					"op":     req.Op.String(),
					"offset": req.Off,
					"size":   req.Size,
				}
			}
			sp := o.Begin(p, cat, name, args)
			err := next.Serve(p, req)
			sp.End()
			return err
		})
	}
}

// Stats returns a middleware counting requests, bytes and errors into
// the engine's metrics registry under prefix (e.g. "ioreq/clientcache").
// All handles are nil-safe, so the middleware costs nothing on an
// uninstrumented engine.
func Stats(e *sim.Engine, prefix string) Middleware {
	reg := obs.Get(e).Registry()
	requests := reg.Counter(prefix + "/requests")
	bytes := reg.Counter(prefix + "/bytes")
	errs := reg.Counter(prefix + "/errors")
	return func(next Layer) Layer {
		return Func(func(p *sim.Proc, req *Request) error {
			requests.Inc()
			bytes.Add(req.Size)
			err := next.Serve(p, req)
			if err != nil {
				errs.Inc()
			}
			return err
		})
	}
}
