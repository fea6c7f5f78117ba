package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"time"

	"repro/internal/obs"
)

// routes wires the HTTP surface. Every endpoint goes through instrument,
// which records per-endpoint latency and status-code counts.
func (s *Server) routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.Handle("POST /v1/jobs", s.instrument("create_job", s.handleCreateJob))
	mux.Handle("GET /v1/jobs", s.instrument("list_jobs", s.handleListJobs))
	mux.Handle("GET /v1/jobs/{id}", s.instrument("get_job", s.handleGetJob))
	mux.Handle("GET /v1/jobs/{id}/result", s.instrument("get_result", s.handleGetResult))
	mux.Handle("DELETE /v1/jobs/{id}", s.instrument("cancel_job", s.handleCancelJob))
	mux.Handle("GET /healthz", s.instrument("healthz", s.handleHealthz))
	mux.Handle("GET /readyz", s.instrument("readyz", s.handleReadyz))
	mux.Handle("GET /metrics", s.instrument("metrics", obs.Handler(s.reg).ServeHTTP))
	return mux
}

// statusWriter remembers the status code for the request counter. It must
// keep implementing http.Flusher or NDJSON streaming stops being
// incremental.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
	w.ResponseWriter.WriteHeader(code)
}

func (w *statusWriter) Write(p []byte) (int, error) {
	if w.code == 0 {
		w.code = http.StatusOK
	}
	return w.ResponseWriter.Write(p)
}

func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

func (s *Server) instrument(name string, h http.HandlerFunc) http.Handler {
	m := s.met.endpoint(name)
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h(sw, r)
		m.latency.ObserveDuration(time.Since(start))
		code := sw.code
		if code == 0 {
			code = http.StatusOK
		}
		m.requests(strconv.Itoa(code)).Inc()
	})
}

// jsonError writes a JSON error body with the given status.
func jsonError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": msg})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

// handleCreateJob is the submission path. Sync (default): the response is
// the job's NDJSON result stream, written incrementally; the job id rides
// in the X-Job-ID header so the body stays spec-deterministic. Async
// (?async=1): 202 with the job id, results via GET /v1/jobs/{id}/result.
func (s *Server) handleCreateJob(w http.ResponseWriter, r *http.Request) {
	async := r.URL.Query().Get("async") == "1"
	var spec Spec
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		jsonError(w, http.StatusBadRequest, "bad job spec: "+err.Error())
		return
	}
	if err := spec.validate(s.cfg, async); err != nil {
		jsonError(w, http.StatusBadRequest, "invalid job spec: "+err.Error())
		return
	}

	key := r.Header.Get("Idempotency-Key")
	j, existing := s.register(spec, key)
	if existing {
		// A retried submission (same Idempotency-Key, possibly across a
		// daemon restart) attaches to the original job instead of running
		// the work twice.
		w.Header().Set("X-Idempotent-Replay", "true")
		if async {
			w.Header().Set("Location", "/v1/jobs/"+j.id)
			writeJSON(w, http.StatusOK, j.info())
			return
		}
		s.streamResult(w, r, j, false)
		return
	}

	// Durability before acknowledgement: a job the client saw accepted must
	// survive a crash, so the submit record lands before the queue does.
	if err := s.journalSubmit(j); err != nil {
		s.rejectUnjournaled(j, err)
		w.Header().Set("Retry-After", retryAfter)
		jsonError(w, http.StatusServiceUnavailable, "journal unavailable: "+err.Error())
		return
	}

	if err := s.enqueue(j); err != nil {
		// The record stays visible as cancelled so a client that races
		// the drain can still see what happened to its submission.
		j.finish(StatusQueued, StatusCancelled, err)
		s.met.jobFinished(StatusCancelled)
		s.journalFinish(j)
		switch {
		case errors.Is(err, errDraining), errors.Is(err, errReplaying):
			w.Header().Set("Retry-After", retryAfter)
			jsonError(w, http.StatusServiceUnavailable, err.Error())
		default:
			s.met.rejected.Inc()
			w.Header().Set("Retry-After", retryAfter)
			jsonError(w, http.StatusTooManyRequests, err.Error())
		}
		return
	}

	if async {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, j.info())
		return
	}
	s.streamResult(w, r, j, true)
}

// streamResult streams a job's NDJSON result, replaying buffered lines and
// following live ones. With owner set (sync submission), a client
// disconnect cancels the job rather than letting it burn the pool for
// nobody.
func (s *Server) streamResult(w http.ResponseWriter, r *http.Request, j *job, owner bool) {
	ctx := r.Context()
	if owner {
		defer func() {
			if ctx.Err() != nil && j.requestCancel() {
				s.met.jobFinished(StatusCancelled)
				s.journalFinish(j)
			}
		}()
	}

	// Wait for the first line (or a terminal state) so failures that
	// happen before any output can still pick a real error status.
	if !j.buf.waitFirst(ctx) {
		return // client gone before anything happened
	}
	if lines, _ := j.buf.stats(); lines == 0 {
		st, errMsg := j.snapshot()
		code := http.StatusInternalServerError
		if st == StatusCancelled {
			code = http.StatusConflict
		}
		if errMsg == "" {
			errMsg = string(st)
		}
		jsonError(w, code, errMsg)
		return
	}

	w.Header().Set("Content-Type", obs.ContentTypeNDJSON)
	w.Header().Set("X-Job-ID", j.id)
	w.WriteHeader(http.StatusOK)
	_ = j.buf.stream(ctx, w)
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.list()})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, j.info())
}

func (s *Server) handleGetResult(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	s.streamResult(w, r, j, false)
}

func (s *Server) handleCancelJob(w http.ResponseWriter, r *http.Request) {
	j, ok := s.lookup(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	if st, _ := j.snapshot(); st.terminal() {
		writeJSON(w, http.StatusOK, j.info())
		return
	}
	if j.requestCancel() {
		s.met.jobFinished(StatusCancelled)
		s.journalFinish(j)
	}
	writeJSON(w, http.StatusAccepted, j.info())
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// handleReadyz reports the lifecycle state so orchestrators can tell a
// daemon that is still replaying its journal from one that is draining for
// shutdown: both answer 503, but only the former will become ready. The
// body carries a machine-readable state= field.
func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	st := s.lifecycle()
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	if st != lifeReady {
		w.Header().Set("Retry-After", retryAfter)
		w.WriteHeader(http.StatusServiceUnavailable)
		fmt.Fprintf(w, "unavailable state=%s\n", st)
		return
	}
	fmt.Fprintln(w, "ok state=ready")
}
