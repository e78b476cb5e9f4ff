package obs

import (
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is the Prometheus type of a metric family.
type Kind string

// The family kinds a Registry renders.
const (
	KindCounter Kind = "counter"
	KindGauge   Kind = "gauge"
	KindSummary Kind = "summary"
)

// maxLabels bounds a family's label names. The widest family in use,
// request latency by route and codec, has two; with a fixed bound the
// label values are a comparable array, so finding a series allocates
// nothing.
const maxLabels = 2

type labelValues [maxLabels]string

// Registry is one process's /metrics surface: metric families declared
// once with their name, help text, kind and label names, rendered as a
// Prometheus text exposition in registration order. A family holds
// series — counters, gauges or latency summaries — or is a function
// that reports its samples at scrape time. Register every family before
// the first scrape.
type Registry struct {
	families []*family
}

type family struct {
	name, help string
	kind       Kind
	labels     []string
	collect    func(emit func(v float64, values ...string)) // scrape-time families only

	mu     sync.Mutex
	series map[labelValues]*series
}

type series struct {
	values labelValues
	n      Counter         // counter and gauge families
	h      LockedHistogram // summary families
}

// Counter is one counter or gauge series. Gauges may move both ways.
type Counter struct{ atomic.Int64 }

// CounterVec is a labelled counter family.
type CounterVec struct{ f *family }

// With returns the series for one label value per label name; the
// series appears at its first With.
func (v *CounterVec) With(values ...string) *Counter { return &v.f.with(values).n }

// SummaryVec is a family of latency summaries.
type SummaryVec struct{ f *family }

// With returns the series for one label value per label name.
func (v *SummaryVec) With(values ...string) *LockedHistogram { return &v.f.with(values).h }

func (r *Registry) add(name, help string, kind Kind, labels []string) *family {
	if len(labels) > maxLabels {
		panic("obs: too many labels on " + name)
	}
	f := &family{name: name, help: help, kind: kind, labels: labels, series: map[labelValues]*series{}}
	r.families = append(r.families, f)
	return f
}

// Counter registers an unlabelled counter.
func (r *Registry) Counter(name, help string) *Counter {
	return &r.add(name, help, KindCounter, nil).with(nil).n
}

// Gauge registers an unlabelled gauge.
func (r *Registry) Gauge(name, help string) *Counter {
	return &r.add(name, help, KindGauge, nil).with(nil).n
}

// CounterVec registers a counter family with the given label names.
func (r *Registry) CounterVec(name, help string, labels ...string) *CounterVec {
	return &CounterVec{r.add(name, help, KindCounter, labels)}
}

// SummaryVec registers a latency summary family with the given label
// names.
func (r *Registry) SummaryVec(name, help string, labels ...string) *SummaryVec {
	return &SummaryVec{r.add(name, help, KindSummary, labels)}
}

// Func registers a counter or gauge family read at scrape time: collect
// calls emit once per series, with its value and label values, in the
// order the series render.
func (r *Registry) Func(name, help string, kind Kind, labels []string, collect func(emit func(v float64, values ...string))) {
	r.add(name, help, kind, labels).collect = collect
}

// Value registers an unlabelled counter or gauge that v reads at scrape
// time.
func (r *Registry) Value(name, help string, kind Kind, v func() float64) {
	r.Func(name, help, kind, nil, func(emit func(float64, ...string)) { emit(v()) })
}

func (f *family) with(values []string) *series {
	if len(values) != len(f.labels) {
		panic(fmt.Sprintf("obs: %s takes %d label values, got %d", f.name, len(f.labels), len(values)))
	}
	var k labelValues
	copy(k[:], values)
	f.mu.Lock()
	defer f.mu.Unlock()
	s := f.series[k]
	if s == nil {
		s = &series{values: k}
		f.series[k] = s
	}
	return s
}

// Write renders the exposition (text format 0.0.4). Series of a
// scrape-time family render in emit order, others in label-value order;
// a summary series with no observations is left out, and so is a family
// with nothing to show, HELP and TYPE included. Counters render as
// integers, gauges in %g form; a summary renders its p50 and p99 in
// seconds, then _sum and _count.
//
// Families are read in reverse registration order and rendered in
// registration order, so a series updated before one registered after it
// never reads behind it: a request counter, bumped before the request
// runs and registered before the request latency, stays at or above the
// latency count at every scrape.
func (r *Registry) Write(w io.Writer) error {
	text := make([]string, len(r.families))
	for i := len(r.families) - 1; i >= 0; i-- {
		text[i] = r.families[i].text()
	}
	_, err := io.WriteString(w, strings.Join(text, ""))
	return err
}

func (f *family) text() string {
	var b strings.Builder
	names := append(f.labels[:len(f.labels):len(f.labels)], "quantile") // a summary's last label
	sample := func(suffix string, values []string, format string, v any) {
		labels := make([]string, len(values))
		for i, val := range values {
			labels[i] = fmt.Sprintf("%s=%q", names[i], val)
		}
		set := ""
		if len(labels) > 0 {
			set = "{" + strings.Join(labels, ",") + "}"
		}
		fmt.Fprintf(&b, "%s%s%s "+format+"\n", f.name, suffix, set, v)
	}
	emit := func(v float64, values ...string) {
		if f.kind == KindCounter {
			sample("", values, "%d", int64(v))
		} else {
			sample("", values, "%g", v)
		}
	}
	if f.collect != nil {
		f.collect(emit)
	} else {
		f.mu.Lock()
		list := make([]*series, 0, len(f.series))
		for _, s := range f.series {
			list = append(list, s)
		}
		f.mu.Unlock()
		slices.SortFunc(list, func(x, y *series) int { return slices.Compare(x.values[:], y.values[:]) })
		for _, s := range list {
			values := s.values[:len(f.labels):len(f.labels)] // full slice: the appends below copy
			if f.kind != KindSummary {
				emit(float64(s.n.Load()), values...)
				continue
			}
			if h := s.h.Snapshot(); h.Count() > 0 {
				sample("", append(values, "0.5"), "%g", h.Quantile(0.5).Seconds())
				sample("", append(values, "0.99"), "%g", h.Quantile(0.99).Seconds())
				sample("_sum", values, "%g", h.Sum().Seconds())
				sample("_count", values, "%d", h.Count())
			}
		}
	}
	if b.Len() == 0 {
		return ""
	}
	return fmt.Sprintf("# HELP %s %s\n# TYPE %s %s\n", f.name, f.help, f.name, f.kind) + b.String()
}

// ServeHTTP serves the exposition: GET /metrics.
func (r *Registry) ServeHTTP(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = r.Write(w) // the connection failing mid-response is the scraper's problem
}
