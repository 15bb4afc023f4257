package fleet

import (
	"context"
	"sync"
	"time"

	"islands/internal/serve"
	serveclient "islands/internal/serve/client"
)

// member is one replica: its typed client plus the health checker's view.
// Members start optimistically healthy (the first probe lands within one
// health interval); consecutive probe failures past the threshold take a
// member out of the placement ring, and a single successful probe puts it
// back. A replica reporting itself draining is treated as down for placement
// — it no longer admits jobs — while its in-flight jobs are still followed.
// A member marked down by failures is unreachable: its lost channel closes,
// which cuts every events stream still following it (a hung replica holds
// its streams open without ever ending them).
type member struct {
	name   string
	client *serveclient.Client

	mu          sync.Mutex
	healthy     bool
	consecFails int
	stats       serve.ReplicaStats
	lastSeen    time.Time
	unreachable bool
	lost        chan struct{} // closed while unreachable
}

func newMember(name string) *member {
	return &member{name: name, client: serveclient.New(name), healthy: true, lost: make(chan struct{})}
}

// Lost returns a channel that closes once the member is marked unreachable.
func (m *member) Lost() <-chan struct{} {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.lost
}

// markUnreachable takes the member out of the ring and closes lost; the
// caller holds mu.
func (m *member) markUnreachable() {
	m.healthy = false
	if !m.unreachable {
		m.unreachable = true
		close(m.lost)
	}
}

// Healthy reports whether the member is currently in the placement ring.
func (m *member) Healthy() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.healthy
}

// Stats returns the last successful probe's snapshot.
func (m *member) Stats() (serve.ReplicaStats, time.Time) {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.stats, m.lastSeen
}

// probe folds one health-check result in and reports whether the member's
// placement eligibility flipped (the caller rebuilds the ring on a flip).
func (m *member) probe(stats serve.ReplicaStats, err error, failThreshold int) (flipped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	was := m.healthy
	if err != nil {
		m.consecFails++
		if m.consecFails >= failThreshold {
			m.markUnreachable()
		}
	} else {
		if m.unreachable {
			m.unreachable = false
			m.lost = make(chan struct{})
		}
		m.consecFails = 0
		m.stats = stats
		m.lastSeen = time.Now()
		m.healthy = !stats.Draining
	}
	return m.healthy != was
}

// fault records a transport error observed outside the health loop (a failed
// placement or a dropped events stream) so a dead replica leaves the ring after
// failThreshold strikes instead of waiting for the next scheduled probe.
func (m *member) fault(failThreshold int) (flipped bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.consecFails++
	if m.consecFails < failThreshold {
		return false
	}
	was := m.healthy
	m.markUnreachable()
	return was
}

// healthLoop probes every member each interval until stop closes, rebuilding
// the placement ring whenever a member's eligibility flips.
func (r *Router) healthLoop() {
	defer r.healthWG.Done()
	t := time.NewTicker(r.opts.HealthInterval)
	defer t.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-t.C:
			r.probeAll()
		}
	}
}

// probeAll checks every member concurrently so one hung replica cannot delay
// the others' probes past the interval.
func (r *Router) probeAll() {
	var wg sync.WaitGroup
	for _, m := range r.memberList() {
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			ctx, cancel := context.WithTimeout(context.Background(), r.opts.HealthInterval)
			defer cancel()
			stats, err := m.client.Stats(ctx)
			if m.probe(stats, err, r.opts.FailThreshold) {
				switch {
				case m.Healthy():
					r.opts.Logf("replica %s back in the placement ring", m.name)
				case err != nil:
					r.opts.Logf("replica %s marked down: %v", m.name, err)
				default:
					r.opts.Logf("replica %s draining, removed from placement", m.name)
				}
				r.rebuildRing()
			}
		}(m)
	}
	wg.Wait()
}
