package serveclient

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"islands/internal/serve"
)

// TestAwaitEventsThenResult: Await follows the events stream to its done
// event and then fetches the result once — no status poll.
func TestAwaitEventsThenResult(t *testing.T) {
	var statusCalls, resultCalls atomic.Int32
	mux := http.NewServeMux()
	mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		for _, ev := range []serve.Event{{Type: "state", State: serve.StateRunning, Steps: 2},
			{Type: "progress", State: serve.StateRunning, Step: 1, Steps: 2},
			{Type: "done", State: serve.StateSucceeded, Step: 2, Steps: 2}} {
			data, _ := json.Marshal(ev)
			fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data)
		}
	})
	mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
		statusCalls.Add(1)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: r.PathValue("id"), State: serve.StateRunning})
	})
	mux.HandleFunc("GET /v1/jobs/{id}/result", func(w http.ResponseWriter, r *http.Request) {
		resultCalls.Add(1)
		json.NewEncoder(w).Encode(serve.JobStatus{ID: r.PathValue("id"), State: serve.StateSucceeded,
			Result: &serve.Result{Steps: 2}})
	})
	hs := httptest.NewServer(mux)
	defer hs.Close()

	st, err := New(hs.URL).Await(context.Background(), "j1")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != serve.StateSucceeded || st.Result == nil || resultCalls.Load() != 1 || statusCalls.Load() != 0 {
		t.Fatalf("Await = %+v after %d result / %d status calls, want succeeded via 1 result fetch",
			st, resultCalls.Load(), statusCalls.Load())
	}
}

// TestAwaitFallsBackToPolling: an endpoint without /events (404 or 405)
// is waited on by status polling.
func TestAwaitFallsBackToPolling(t *testing.T) {
	for _, code := range []int{http.StatusNotFound, http.StatusMethodNotAllowed} {
		var polls atomic.Int32
		mux := http.NewServeMux()
		mux.HandleFunc("GET /v1/jobs/{id}/events", func(w http.ResponseWriter, r *http.Request) {
			w.WriteHeader(code)
		})
		mux.HandleFunc("GET /v1/jobs/{id}", func(w http.ResponseWriter, r *http.Request) {
			state := serve.StateRunning
			if polls.Add(1) >= 2 {
				state = serve.StateSucceeded
			}
			json.NewEncoder(w).Encode(serve.JobStatus{ID: r.PathValue("id"), State: state})
		})
		hs := httptest.NewServer(mux)
		st, err := New(hs.URL).Await(context.Background(), "j1")
		hs.Close()
		if err != nil || st.State != serve.StateSucceeded || polls.Load() != 2 {
			t.Fatalf("events %d: Await = %+v, %v after %d polls, want succeeded after 2", code, st, err, polls.Load())
		}
	}
}

// TestEventsStreamEndedWithoutDone: a stream the server closes before its
// done event is an error, not a silent success.
func TestEventsStreamEndedWithoutDone(t *testing.T) {
	hs := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/event-stream")
		fmt.Fprint(w, "event: state\ndata: {\"type\":\"state\",\"state\":\"running\"}\n\n")
	}))
	defer hs.Close()
	err := New(hs.URL).Events(context.Background(), "j1", func(serve.Event) bool { return true })
	if !errors.Is(err, ErrStreamEnded) {
		t.Fatalf("Events = %v, want ErrStreamEnded", err)
	}
}
