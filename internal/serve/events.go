package serve

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
)

// EventHub fans one job's progress events out to its SSE subscribers. Slow
// subscribers drop intermediate events (each channel is buffered); the
// terminal event is never lost because WriteEvents also watches the job's
// done channel. The zero value is ready to use.
type EventHub struct {
	mu   sync.Mutex
	subs map[chan Event]struct{}
}

// Publish delivers ev to every subscriber that has buffer room.
func (h *EventHub) Publish(ev Event) {
	h.mu.Lock()
	defer h.mu.Unlock()
	for ch := range h.subs {
		select {
		case ch <- ev:
		default:
		}
	}
}

// Subscribe registers an event channel; the returned func unsubscribes.
func (h *EventHub) Subscribe() (<-chan Event, func()) {
	// 16 events of slack let a subscriber flushing a slow connection miss
	// nothing across a burst of short steps; beyond that it drops.
	ch := make(chan Event, 16)
	h.mu.Lock()
	if h.subs == nil {
		h.subs = make(map[chan Event]struct{})
	}
	h.subs[ch] = struct{}{}
	h.mu.Unlock()
	return ch, func() {
		h.mu.Lock()
		delete(h.subs, ch)
		h.mu.Unlock()
	}
}

// WriteEvents serves one job's GET /v1/jobs/{id}/events stream. It is the
// single SSE writer of the API: the replica and the fleet router both serve
// their jobs through it. The stream opens with a "state" event built from
// snapshot (so late subscribers see where the job stands), forwards the
// hub's events, and always ends with exactly one "done" event — if the
// hub's buffer dropped the terminal event, a final snapshot stands in for it
// once done is closed. snapshot returns the job's current state, step,
// steps and error; WriteEvents sets the event type.
func WriteEvents(w http.ResponseWriter, r *http.Request, hub *EventHub, done <-chan struct{}, snapshot func() Event) {
	fl, ok := w.(http.Flusher)
	if !ok {
		writeJSON(w, http.StatusNotImplemented, apiError{Error: "streaming unsupported"})
		return
	}
	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.WriteHeader(http.StatusOK)

	ch, unsubscribe := hub.Subscribe()
	defer unsubscribe()

	write := func(ev Event) bool {
		data, err := json.Marshal(ev)
		if err != nil {
			return false
		}
		if _, err := fmt.Fprintf(w, "event: %s\ndata: %s\n\n", ev.Type, data); err != nil {
			return false
		}
		fl.Flush()
		return true
	}
	final := func() {
		ev := snapshot()
		ev.Type = "done"
		write(ev)
	}

	ev := snapshot()
	ev.Type = "state"
	if !write(ev) {
		return
	}
	if ev.State.Terminal() {
		final()
		return
	}
	for {
		select {
		case ev := <-ch:
			if !write(ev) || ev.Type == "done" {
				return
			}
		case <-done:
			// Flush the buffered events, then deliver the terminal event
			// even if the buffer dropped it.
			for {
				select {
				case ev := <-ch:
					if !write(ev) || ev.Type == "done" {
						return
					}
					continue
				default:
				}
				break
			}
			final()
			return
		case <-r.Context().Done():
			return
		}
	}
}
