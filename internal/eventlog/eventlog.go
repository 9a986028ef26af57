// Package eventlog is the one event stream behind the server's
// server-sent events: a job's lifecycle and engine progress, and a drift
// monitor's alarm transitions. A Log numbers the events published to it
// from 1 and keeps the latest of them, up to a fixed bound. Subscribers
// read by cursor, every pending event at once, so a publisher never
// waits on a subscriber and a subscriber that keeps reading loses
// nothing. A subscriber that falls a whole bound behind skips ahead to
// the oldest event still kept, and the events it skipped are counted.
package eventlog

import "sync"

// Log is an append-only, numbered event sequence that keeps its latest
// events. It is safe for concurrent use.
type Log[E any] struct {
	mu    sync.Mutex
	keep  int
	stamp func(*E, int64)
	drop  func(int64)
	// ring holds the kept events: event n (from 1) at ring[(n-1)%keep],
	// the newest min(n, keep) of them.
	ring    []E
	n       int64
	subs    []*Sub[E]
	closed  bool
	dropped int64
}

// New returns an empty log that keeps the latest keep events (at least
// one). stamp, if not nil, writes an event's number into it: into the
// copy Publish returns and the copies Read hands out. drop, if not nil,
// is told of the events subscribers lose. Neither is called with the log
// locked.
func New[E any](keep int, stamp func(*E, int64), drop func(int64)) *Log[E] {
	return &Log[E]{keep: max(keep, 1), stamp: stamp, drop: drop}
}

// Publish numbers ev, appends it and returns it as numbered. A subscriber
// whose next event it displaces from the log skips that event. After
// Close, Publish appends nothing and returns ev as given.
func (l *Log[E]) Publish(ev E) E {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ev
	}
	l.n++
	n := l.n
	if len(l.ring) < l.keep {
		l.ring = append(l.ring, ev)
	} else {
		l.ring[(n-1)%int64(l.keep)] = ev
	}
	oldest := n - int64(len(l.ring)) + 1
	var lost int64
	for _, s := range l.subs {
		if s.next < oldest {
			lost += oldest - s.next
			s.next = oldest
		}
		// Only the first pending event wakes a subscriber: one that has
		// more pending was woken already and reads them all at once.
		if s.next == n {
			s.notify()
		}
	}
	l.dropped += lost
	l.mu.Unlock()
	if lost > 0 && l.drop != nil {
		l.drop(lost)
	}
	if l.stamp != nil {
		l.stamp(&ev, n)
	}
	return ev
}

// Close ends the log: no further event is appended, and every
// subscriber reads what it has pending and then finds the log done.
func (l *Log[E]) Close() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return
	}
	l.closed = true
	for _, s := range l.subs {
		s.notify()
	}
	l.subs = nil
}

// Dropped returns how many events subscribers have lost.
func (l *Log[E]) Dropped() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.dropped
}

// Subscribe returns a subscriber whose cursor is at the oldest kept
// event: its first Read replays them. A subscriber of a closed log reads
// the kept events and finds the log done.
func (l *Log[E]) Subscribe() *Sub[E] {
	l.mu.Lock()
	defer l.mu.Unlock()
	s := &Sub[E]{log: l, next: l.n - int64(len(l.ring)) + 1, wake: make(chan struct{}, 1)}
	if !l.closed {
		l.subs = append(l.subs, s)
	}
	return s
}

// Sub is one subscriber's cursor into a Log. One goroutine reads it.
type Sub[E any] struct {
	log  *Log[E]
	next int64 // the number of the next event to read
	wake chan struct{}
}

// Read appends every pending event to dst, in order, and reports whether
// the log is done: closed, with nothing left to read. Read never blocks
// on a publisher; a reader waits for more on Wake, after a Read.
func (s *Sub[E]) Read(dst []E) ([]E, bool) {
	l := s.log
	l.mu.Lock()
	// Only a closed subscriber can be behind the log: Publish moves the
	// cursors of the others.
	s.next = max(s.next, l.n-int64(len(l.ring))+1)
	from, first := len(dst), s.next
	for ; s.next <= l.n; s.next++ {
		dst = append(dst, l.ring[(s.next-1)%int64(l.keep)])
	}
	done := l.closed
	l.mu.Unlock()
	if l.stamp != nil {
		for i := from; i < len(dst); i++ {
			l.stamp(&dst[i], first+int64(i-from))
		}
	}
	return dst, done
}

// Wake receives once events are pending or the log closes after the
// subscriber's last Read. It may also receive when nothing is pending.
func (s *Sub[E]) Wake() <-chan struct{} { return s.wake }

func (s *Sub[E]) notify() {
	select {
	case s.wake <- struct{}{}:
	default:
	}
}

// Close detaches the subscriber. It is idempotent.
func (s *Sub[E]) Close() {
	l := s.log
	l.mu.Lock()
	defer l.mu.Unlock()
	for i, o := range l.subs {
		if o == s {
			l.subs[i] = l.subs[len(l.subs)-1]
			l.subs[len(l.subs)-1] = nil
			l.subs = l.subs[:len(l.subs)-1]
			return
		}
	}
}
