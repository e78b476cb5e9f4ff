package server

import (
	"crypto/rand"
	"encoding/hex"
	"sync"
	"time"

	"mpsched/internal/obs"
	"mpsched/internal/pipeline"
)

// asyncJob is one queued compilation. Status transitions are
// queued → running → done | failed, guarded by mu; clients observe
// progress by polling GET /v1/jobs/{id}.
type asyncJob struct {
	id   string
	spec pipeline.Spec
	// trace is the submit request's trace; the job appends its queue-wait
	// and compile spans to it as it runs (nil-safe). traceID is the
	// effective ID, echoed in every JobResponse for the job.
	trace   *obs.Trace
	traceID string
	// submitted is when the job entered the queue; zero for jobs that
	// never went through admission (tests).
	submitted time.Time
	// deadline is the absolute point the submitting client stops caring,
	// frozen from its deadline budget at admission; zero means none. The
	// queue worker fails the job immediately when it is already past, and
	// bounds the compile context by it otherwise.
	deadline time.Time

	mu     sync.Mutex
	status string
	err    error
	result *CompileResponse
}

func (j *asyncJob) setRunning() {
	j.mu.Lock()
	j.status = JobRunning
	j.mu.Unlock()
}

func (j *asyncJob) finish(result *CompileResponse, err error) {
	j.mu.Lock()
	if err != nil {
		j.status = JobFailed
		j.err = err
	} else {
		j.status = JobDone
		j.result = result
	}
	j.mu.Unlock()
}

// snapshot renders the job's current state as a response body.
func (j *asyncJob) snapshot() JobResponse {
	j.mu.Lock()
	defer j.mu.Unlock()
	resp := JobResponse{ID: j.id, Status: j.status, Result: j.result, TraceID: j.traceID}
	if j.err != nil {
		resp.Error = errString(j.err)
	}
	return resp
}

// newJobID returns a 16-hex-char random id.
func newJobID() string {
	var b [8]byte
	if _, err := rand.Read(b[:]); err != nil {
		panic(err) // the platform CSPRNG failing is not recoverable
	}
	return hex.EncodeToString(b[:])
}

// jobStore indexes jobs by id and caps retained history: once more than
// max jobs exist, the oldest *terminal* jobs are evicted so a long-running
// daemon's memory stays bounded while queued/running jobs are never lost.
type jobStore struct {
	mu    sync.Mutex
	max   int
	jobs  map[string]*asyncJob
	order []string // insertion order, for eviction scans
}

func newJobStore(max int) *jobStore {
	return &jobStore{max: max, jobs: map[string]*asyncJob{}}
}

func (s *jobStore) add(j *asyncJob) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.jobs[j.id] = j
	s.order = append(s.order, j.id)
	if len(s.jobs) <= s.max {
		return
	}
	kept := s.order[:0]
	for _, id := range s.order {
		old, ok := s.jobs[id]
		if !ok {
			continue
		}
		if len(s.jobs) > s.max && isTerminal(old) {
			delete(s.jobs, id)
			continue
		}
		kept = append(kept, id)
	}
	s.order = kept
}

func isTerminal(j *asyncJob) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status == JobDone || j.status == JobFailed
}

func (s *jobStore) get(id string) (*asyncJob, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

func (s *jobStore) len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.jobs)
}
