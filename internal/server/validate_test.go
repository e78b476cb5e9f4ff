package server

import (
	"encoding/json"
	"errors"
	"testing"

	"mpsched/internal/dfg"
)

func TestValidateCompileRequest(t *testing.T) {
	var g dfg.Graph
	if err := json.Unmarshal([]byte(`{"name":"g","nodes":[]}`), &g); err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name  string
		req   CompileRequest
		field string // expected FieldError.Field, "" = valid
	}{
		{"workload ok", CompileRequest{Workload: "3dft"}, ""},
		{"dfg ok", CompileRequest{Graph: &g}, ""},
		{"no graph", CompileRequest{}, "workload"},
		{"both graphs", CompileRequest{Workload: "3dft", Graph: &g}, "workload"},
		{"negative c", CompileRequest{Workload: "3dft", Select: &SelectConfig{C: -1}}, "select.c"},
		{"largest c ok", CompileRequest{Workload: "3dft", Select: &SelectConfig{C: 65535}}, ""},
		{"c over the pattern key limit", CompileRequest{Workload: "3dft", Select: &SelectConfig{C: 65536}}, "select.c"},
		{"negative pdef", CompileRequest{Workload: "3dft", Select: &SelectConfig{Pdef: -2}}, "select.pdef"},
		{"bad span", CompileRequest{Workload: "3dft", Select: &SelectConfig{Span: -3}}, "select.span"},
		{"unlimited span ok", CompileRequest{Workload: "3dft", Select: &SelectConfig{Span: -1}}, ""},
		{"negative epsilon", CompileRequest{Workload: "3dft", Select: &SelectConfig{Epsilon: -0.5}}, "select.epsilon"},
		{"negative alpha", CompileRequest{Workload: "3dft", Select: &SelectConfig{Alpha: -1}}, "select.alpha"},
		{"bad priority", CompileRequest{Workload: "3dft", Sched: &SchedConfig{Priority: "F9"}}, "sched.priority"},
		{"good priority", CompileRequest{Workload: "3dft", Sched: &SchedConfig{Priority: "f1"}}, ""},
		{"bad tie", CompileRequest{Workload: "3dft", Sched: &SchedConfig{Tie: "sideways"}}, "sched.tie"},
		{"stop select ok", CompileRequest{Workload: "3dft", StopAfter: "select"}, ""},
		{"stop census ok", CompileRequest{Workload: "3dft", StopAfter: "census"}, ""},
		{"stop schedule ok", CompileRequest{Workload: "3dft", StopAfter: "schedule"}, ""},
		{"stop unknown", CompileRequest{Workload: "3dft", StopAfter: "link"}, "stop_after"},
		{"stop parse rejected", CompileRequest{Workload: "3dft", StopAfter: "parse"}, "stop_after"},
		{"spans ok", CompileRequest{Workload: "3dft", Spans: []int{0, 1, 2}}, ""},
		{"bad span value", CompileRequest{Workload: "3dft", Spans: []int{0, -2}}, "spans"},
		{"most spans ok", CompileRequest{Workload: "3dft", Spans: make([]int, maxSpans)}, ""},
		{"too many spans", CompileRequest{Workload: "3dft", Spans: make([]int, maxSpans+1)}, "spans"},
		{"spans with stop select", CompileRequest{Workload: "3dft", Spans: []int{0, 1}, StopAfter: "select"}, "spans"},
		{"spans with stop census", CompileRequest{Workload: "3dft", Spans: []int{0, 1}, StopAfter: "census"}, "spans"},
		{"spans with stop schedule", CompileRequest{Workload: "3dft", Spans: []int{0, 1}, StopAfter: "schedule"}, ""},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			err := ValidateRequest(tc.req)
			if tc.field == "" {
				if err != nil {
					t.Fatalf("unexpected error: %v", err)
				}
				return
			}
			var fe *FieldError
			if !errors.As(err, &fe) {
				t.Fatalf("err = %v (%T), want a *FieldError", err, err)
			}
			if fe.Field != tc.field {
				t.Fatalf("field = %q, want %q (err: %v)", fe.Field, tc.field, err)
			}
		})
	}
}

// TestToJobRejectsWithFieldErrors pins that the handler path surfaces the
// typed validation errors as 400s with the field name in the message.
func TestToJobRejectsWithFieldErrors(t *testing.T) {
	_, err := toSpec(CompileRequest{Workload: "3dft", Select: &SelectConfig{Pdef: -1}}, nil)
	if err == nil {
		t.Fatal("invalid request accepted")
	}
	var bad badRequestError
	if !errors.As(err, &bad) {
		t.Fatalf("err = %T, want badRequestError", err)
	}
	var fe *FieldError
	if !errors.As(err, &fe) || fe.Field != "select.pdef" {
		t.Fatalf("err = %v, want a select.pdef FieldError", err)
	}
}
