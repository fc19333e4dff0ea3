package proto

import (
	"sync"
	"time"
)

// Lot is the parking lot for interrupted sessions: each value waits under
// its resume token for a grace window, and a value nobody takes back in
// time is handed to the owner's release callback. Values the lot will
// never hand back — expired, refused after Close, or flushed by Close —
// are released exactly once, always before the optional expired callback
// runs, so a counter it bumps never outruns the state it describes.
type Lot[T any] struct {
	grace   time.Duration
	release func(T)
	expired func(T)

	mu     sync.Mutex
	spots  map[string]spot[T]
	gen    uint64
	closed bool
}

// spot is one parked value. gen guards its grace timer: every Park draws
// a new generation, so a stale timer that lost its Stop race cannot
// expire the value re-parked under the same token since.
type spot[T any] struct {
	v     T
	gen   uint64
	timer *time.Timer
}

// NewLot makes a lot with the given grace window. release discards a
// value's state; expired (optional) runs after release on a grace expiry.
func NewLot[T any](grace time.Duration, release, expired func(T)) *Lot[T] {
	return &Lot[T]{grace: grace, release: release, expired: expired, spots: make(map[string]spot[T])}
}

// Park stores v under token for the grace window. After Close it refuses:
// v is released and Park reports false.
func (l *Lot[T]) Park(token string, v T) bool {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		l.release(v)
		return false
	}
	l.gen++
	gen := l.gen
	l.spots[token] = spot[T]{v: v, gen: gen, timer: time.AfterFunc(l.grace, func() { l.expire(token, gen) })}
	l.mu.Unlock()
	return true
}

// Take claims the value parked under token, disarming its timer. The
// caller owns it: it must consume it, re-park it, or release it.
func (l *Lot[T]) Take(token string) (T, bool) {
	l.mu.Lock()
	sp, ok := l.spots[token]
	if ok {
		delete(l.spots, token)
		sp.timer.Stop()
	}
	l.mu.Unlock()
	return sp.v, ok
}

// Len reports how many values are parked.
func (l *Lot[T]) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.spots)
}

// expire is the grace timer of the Park that drew gen.
func (l *Lot[T]) expire(token string, gen uint64) {
	l.mu.Lock()
	sp, ok := l.spots[token]
	if !ok || sp.gen != gen {
		l.mu.Unlock()
		return
	}
	delete(l.spots, token)
	l.mu.Unlock()
	l.release(sp.v)
	if l.expired != nil {
		l.expired(sp.v)
	}
}

// Close refuses further parks and releases every parked value, returning
// them (for the owner's shutdown accounting).
func (l *Lot[T]) Close() []T {
	l.mu.Lock()
	l.closed = true
	vs := make([]T, 0, len(l.spots))
	for _, sp := range l.spots {
		sp.timer.Stop()
		vs = append(vs, sp.v)
	}
	clear(l.spots)
	l.mu.Unlock()
	for _, v := range vs {
		l.release(v)
	}
	return vs
}
