package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"strconv"
	"time"
)

// Handler returns the service's HTTP surface:
//
//	POST   /jobs              submit a JobSpec; 202 + JobStatus, or 429
//	                          with a Retry-After header when the queue
//	                          is full
//	GET    /jobs/{id}         JobStatus
//	GET    /jobs/{id}/result  JobResult (202 while pending, 409 for
//	                          failed/canceled jobs)
//	GET    /jobs/{id}/profile per-job obsv.Profile (404 until available)
//	POST   /jobs/{id}/cancel  request cancellation (202)
//	DELETE /jobs/{id}         alias for cancel
//	GET    /stats             server Stats
//	GET    /healthz           liveness probe
//
// All bodies are JSON; errors are {"error": "..."} with the matching
// status code.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleStatus)
	mux.HandleFunc("GET /jobs/{id}/result", s.handleResult)
	mux.HandleFunc("GET /jobs/{id}/profile", s.handleProfile)
	mux.HandleFunc("POST /jobs/{id}/cancel", s.handleCancel)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
	})
	return mux
}

// writeJSON encodes v with the given status code.
func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// writeError renders an error body.
func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// retryAfterSeconds renders a backoff hint as whole seconds for the
// Retry-After header: ceiling, clamped to a minimum of 1. Truncation
// would render any sub-second hint as "0" and invite an instant-retry
// stampede from every backpressured client at once.
func retryAfterSeconds(d time.Duration) string {
	secs := int64(math.Ceil(d.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return strconv.FormatInt(secs, 10)
}

// maxSubmitBytes bounds a POST /jobs body. A JobSpec is about 200 bytes;
// the bound only keeps a hostile client from making the decoder buffer
// an arbitrarily long body.
const maxSubmitBytes = 1 << 20

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxSubmitBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("serve: bad submit body: %w", err))
		return
	}
	st, err := s.Submit(spec)
	switch {
	case errors.Is(err, ErrQueueFull), errors.Is(err, ErrOverBudget):
		w.Header().Set("Retry-After", retryAfterSeconds(s.cfg.RetryAfter))
		writeError(w, http.StatusTooManyRequests, err)
	case errors.Is(err, ErrShuttingDown):
		writeError(w, http.StatusServiceUnavailable, err)
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	st, err := s.Job(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	switch st.State {
	case JobDone:
		writeJSON(w, http.StatusOK, st.Result)
	case JobFailed:
		writeError(w, http.StatusConflict, fmt.Errorf("serve: job %s failed: %s", st.ID, st.Error))
	case JobCanceled:
		writeError(w, http.StatusConflict, fmt.Errorf("serve: job %s was canceled", st.ID))
	default:
		writeJSON(w, http.StatusAccepted, st)
	}
}

func (s *Server) handleProfile(w http.ResponseWriter, r *http.Request) {
	prof, err := s.Profile(r.PathValue("id"))
	if err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	if prof == nil {
		writeError(w, http.StatusNotFound, errors.New("serve: no profile yet (job pending, canceled, or failed)"))
		return
	}
	writeJSON(w, http.StatusOK, prof)
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	st, _ := s.Job(id)
	writeJSON(w, http.StatusAccepted, st)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.Stats())
}
