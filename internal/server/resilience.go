package server

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"runtime/debug"
	"time"

	"mpsched/internal/dfg"
	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
	"mpsched/internal/resilience"
	"mpsched/internal/wire"
)

// This file is the server half of the resilience layer (see
// internal/resilience): deadline propagation into compile contexts,
// panic isolation around handlers and compiles, brownout load shedding,
// and the unified backpressure response every rejection goes through.

// errOverloaded is the brownout rejection body. It names the signal so
// an operator reading client logs knows which metric to look at.
var errOverloaded = errors.New("server overloaded (queue-wait p99 over the shed threshold); retry later")

// withBudget bounds ctx by a remaining budget. Budget 0 (no deadline)
// returns ctx unchanged with a no-op cancel, so the default path stays
// allocation-free.
func withBudget(ctx context.Context, budget time.Duration) (context.Context, context.CancelFunc) {
	if budget == 0 {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, budget)
}

// compileJob runs one spec through the compiler with the server's panic
// perimeter around it: any panic — the chaos injector's, or a compiler
// bug that escapes the compiler's own recover — becomes a
// *pipeline.PanicError, so the caller maps it to one 500 while the
// daemon and every neighbouring job keep going. Every outcome is
// recorded by observeCompile.
func (s *Server) compileJob(ctx context.Context, tr *obs.Trace, spec pipeline.Spec) (rep *pipeline.Report, err error) {
	start := time.Now()
	defer func() {
		if rec := recover(); rec != nil {
			s.metrics.panics.Add(1)
			s.logger().Error("compile panic isolated", "job", spec.Label(), "panic", rec)
			rep, err = nil, &pipeline.PanicError{Value: rec, Stack: debug.Stack()}
		}
		s.observeCompile(tr, start, rep, err)
	}()
	if s.opts.Faults != nil {
		s.opts.Faults.CompilePanic(spec.Label())
	}
	rep, err = s.compiler.Compile(ctx, spec)
	if err != nil {
		if pe := (*pipeline.PanicError)(nil); errors.As(err, &pe) {
			// The compiler's own recover already converted it; count and
			// log here so both layers surface identically.
			s.metrics.panics.Add(1)
			s.logger().Error("compile panic isolated", "job", spec.Label(), "panic", pe.Value)
		}
		// Compile errors reach clients naming the spec they belong to.
		err = fmt.Errorf("pipeline: job %q: %w", spec.Label(), err)
	}
	return rep, err
}

// compileFailureStatus maps a failed compile to its HTTP status (whole
// request or batch item alike) and counts the deadline metric when the
// request's own budget was what killed it. reqCtx is the client
// connection's context, compileCtx the budget-bounded one derived from
// it.
func (s *Server) compileFailureStatus(reqCtx, compileCtx context.Context, err error) int {
	var pe *pipeline.PanicError
	switch {
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case reqCtx.Err() != nil:
		// The client went away; the status is for the log only.
		return http.StatusRequestTimeout
	case errors.Is(err, dfg.ErrCyclic) || errors.Is(err, dfg.ErrDuplicateName) || errors.Is(err, dfg.ErrIndexRange):
		// A malformed graph is the client's fault even when it surfaces
		// from inside the compile.
		return http.StatusBadRequest
	case compileCtx.Err() != nil:
		s.metrics.deadlineExpired.Add(1)
		return http.StatusGatewayTimeout
	}
	return http.StatusUnprocessableEntity
}

// writeExpired answers a request whose deadline passed before any work
// ran: the client's budget is gone, so the cheapest correct answer is an
// immediate 504.
func (s *Server) writeExpired(w http.ResponseWriter, budget time.Duration) {
	s.metrics.deadlineExpired.Add(1)
	wire.WriteError(w, http.StatusGatewayTimeout,
		fmt.Errorf("deadline expired %v before the compile started", -budget))
}

// shedSync reports whether the brownout controller currently refuses
// sync compile work (compiles and batch envelopes), writing the
// rejection when it does. Health checks never shed: an overloaded
// server that stops answering /healthz gets restarted, which helps
// nobody.
func (s *Server) shedSyncWork(w http.ResponseWriter) bool {
	if s.shed.Level() < resilience.ShedSync {
		return false
	}
	s.metrics.shedSync.Add(1)
	wire.WriteRetryLater(w, http.StatusTooManyRequests, errOverloaded)
	return true
}

// shedAsyncWork is shedSyncWork for async job submissions, which shed
// first — their clients planned to wait anyway, so turning them away is
// the cheapest relief.
func (s *Server) shedAsyncWork(w http.ResponseWriter) bool {
	if s.shed.Level() < resilience.ShedAsync {
		return false
	}
	s.metrics.shedAsync.Add(1)
	wire.WriteRetryLater(w, http.StatusTooManyRequests, errOverloaded)
	return true
}

// safe wraps h in the server's panic perimeter: a panic is recovered,
// counted, logged with its stack, and answered with a 500 when the
// response has not started. http.ErrAbortHandler passes through — it is
// net/http's sanctioned way to abort a connection (the fault injector's
// drop uses it), not a bug to report.
func (s *Server) safe(h http.HandlerFunc) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			rec := recover()
			if rec == nil {
				return
			}
			if rec == http.ErrAbortHandler {
				panic(rec)
			}
			s.metrics.panics.Add(1)
			s.logger().Error("handler panic recovered",
				"route", r.URL.Path, "panic", rec, "stack", string(debug.Stack()))
			if sw, ok := w.(*obs.StatusWriter); !ok || !sw.Started() {
				wire.WriteError(w, http.StatusInternalServerError, fmt.Errorf("internal error: %v", rec))
			}
		}()
		h(w, r)
	}
}

func (s *Server) logger() *slog.Logger {
	if s.opts.Logger != nil {
		return s.opts.Logger
	}
	return slog.Default()
}
