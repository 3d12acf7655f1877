package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"os"
	"runtime/debug"
	"time"
)

// Server is the HTTP front-end over a Service. The job table keeps every
// queued or running job and the last Config.CacheSize finished ones; an
// evicted job's ID answers 404 on every /jobs/{id} route.
//
//	POST   /jobs             submit a JobSpec; 202 + job snapshot, or 200 + cache_hit
//	                         (a retained finished job's snapshot, its ID included)
//	GET    /jobs             list the retained jobs in submission order
//	GET    /jobs/{id}        one job's status
//	GET    /jobs/{id}/result finished job's Result
//	GET    /jobs/{id}/events server-sent events: a status snapshot per change
//	DELETE /jobs/{id}        cancel a queued or running job
//	GET    /metrics          Metrics JSON
//	GET    /healthz          readiness: 200 serving, 503 draining
type Server struct {
	svc *Service
	mux *http.ServeMux

	// eventPoll is how often the SSE loop re-checks a job for changes;
	// shortened in tests.
	eventPoll time.Duration
}

// gcPercent is the GC percent a serving process runs at. Its live heap
// is a few MB (the job table's compact answers and the cell store's
// blobs), so at Go's default of 100 it collects after every 2-4 MB of
// request garbage, and under cache-hit traffic each collection's work
// lands on some request's latency. At 400 the heap grows to five times
// the live heap, and at least 16 MB, before the next collection.
const gcPercent = 400

// NewServer wires the routes and sets the process's heap policy: the GC
// percent becomes gcPercent, unless GOGC in the environment already chose
// one.
func NewServer(svc *Service) *Server {
	if _, set := os.LookupEnv("GOGC"); !set {
		debug.SetGCPercent(gcPercent)
	}
	s := &Server{svc: svc, mux: http.NewServeMux(), eventPoll: 200 * time.Millisecond}
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs", s.handleList)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	s.mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	s.mux.HandleFunc("GET /jobs/{id}/events", s.handleEvents)
	s.mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	return s
}

// handleHealthz is the readiness probe load balancers and supervisors
// key off: 200 while the daemon accepts jobs, 503 once a drain has
// begun so traffic stops landing here.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	if s.svc.draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// Handler returns the routed handler for an http.Server.
func (s *Server) Handler() http.Handler { return s.mux }

// writeJSON answers with v as compact JSON, encoded straight into w. It
// answers every job-table hit, so it does not indent: an indenting
// encoder grows a buffer of its own from empty on every call.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(v)
}

// encodeJSON returns the bytes writeJSON writes for v: compact JSON and
// a newline. On an encoding error it returns nothing, as writeJSON then
// writes nothing.
func encodeJSON(v any) []byte {
	var buf bytes.Buffer
	_ = json.NewEncoder(&buf).Encode(v)
	return buf.Bytes()
}

// writeEncoded answers with b, an answer encodeJSON encoded earlier.
func writeEncoded(w http.ResponseWriter, code int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_, _ = w.Write(b)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// maxSpecBytes bounds a POST /jobs body; a JobSpec is under 1 KB.
const maxSpecBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSpecBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("bad job spec: %w", err))
		return
	}
	job, live, err := s.svc.submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull):
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrClosed):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	case job.CacheHit:
		// A hit answers with a done job's snapshot, which never changes:
		// the first hit encodes it, and later ones write those bytes.
		b := job.hitJSON
		if b == nil {
			b = s.svc.keepAnswer(&live.hitJSON, encodeJSON(job))
		}
		writeEncoded(w, http.StatusOK, b)
	default:
		writeJSON(w, http.StatusAccepted, job)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.svc.Jobs()})
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	job, err := s.svc.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	job, live, err := s.svc.find(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if job.result == nil {
		writeError(w, http.StatusConflict,
			fmt.Errorf("job %s is %s, no result yet", job.ID, job.State))
		return
	}
	b := job.resultJSON
	if b == nil {
		b = s.svc.keepAnswer(&live.resultJSON, encodeJSON(job.result))
	}
	writeEncoded(w, http.StatusOK, b)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	job, err := s.svc.Cancel(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, job)
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.svc.Metrics())
}

// handleEvents streams job snapshots as server-sent events until the job
// reaches a terminal state or the client goes away. Each event carries
// the full status JSON; a snapshot is emitted only when Version moves.
// The stream follows the job itself, so it ends with the terminal
// snapshot even when the table evicts the job between two polls.
func (s *Server) handleEvents(w http.ResponseWriter, r *http.Request) {
	_, live, err := s.svc.find(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, errors.New("streaming unsupported"))
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	lastVersion := -1
	ticker := time.NewTicker(s.eventPoll)
	defer ticker.Stop()
	for {
		job := s.svc.snapshot(live)
		if job.Version != lastVersion {
			lastVersion = job.Version
			raw, _ := json.Marshal(job)
			fmt.Fprintf(w, "event: status\ndata: %s\n\n", raw)
			flusher.Flush()
		}
		if job.State.terminal() {
			return
		}
		select {
		case <-r.Context().Done():
			return
		case <-ticker.C:
		}
	}
}
