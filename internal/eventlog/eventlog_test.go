package eventlog

import (
	"sync"
	"testing"
	"time"
)

type event struct {
	seq  int64
	from int
}

func newLog(keep int, dropped *int64) *Log[event] {
	var drop func(int64)
	if dropped != nil {
		drop = func(n int64) { *dropped += n }
	}
	return New(keep, func(ev *event, seq int64) { ev.seq = seq }, drop)
}

// readAll reads sub until its log is done, waiting on Wake between reads.
func readAll(t *testing.T, sub *Sub[event]) []event {
	t.Helper()
	var out []event
	for {
		var done bool
		if out, done = sub.Read(out); done {
			return out
		}
		select {
		case <-sub.Wake():
		case <-time.After(10 * time.Second):
			t.Errorf("log not done after %d events", len(out))
			return out
		}
	}
}

// waitWake waits for sub's wake, failing the test after 10 s.
func waitWake(t *testing.T, sub *Sub[event]) {
	t.Helper()
	select {
	case <-sub.Wake():
	case <-time.After(10 * time.Second):
		t.Fatal("no wake")
	}
}

func TestReadByCursor(t *testing.T) {
	l := newLog(8, nil)
	l.Publish(event{})
	if ev := l.Publish(event{}); ev.seq != 2 {
		t.Fatalf("second event numbered %d", ev.seq)
	}
	sub := l.Subscribe()
	defer sub.Close()
	if evs, done := sub.Read(nil); len(evs) != 2 || evs[0].seq != 1 || done {
		t.Fatalf("replay %+v, done %v", evs, done)
	}
	if evs, _ := sub.Read(nil); len(evs) != 0 {
		t.Fatalf("read %+v twice", evs)
	}
	// The first pending event wakes the subscriber; later ones find it
	// woken.
	l.Publish(event{})
	l.Publish(event{})
	waitWake(t, sub)
	select {
	case <-sub.Wake():
		t.Fatal("woken twice for one batch")
	default:
	}
	if evs, _ := sub.Read(nil); len(evs) != 2 || evs[0].seq != 3 || evs[1].seq != 4 {
		t.Fatalf("batch %+v", evs)
	}
	l.Close()
	waitWake(t, sub)
	if evs, done := sub.Read(nil); len(evs) != 0 || !done {
		t.Fatalf("after close: %+v, done %v", evs, done)
	}
	if ev := l.Publish(event{from: 9}); ev.seq != 0 {
		t.Fatalf("published after close: %+v", ev)
	}
}

// TestSkipAhead: a subscriber that falls the whole bound behind loses the
// events that leave the log, each counted once, and reads on from the
// oldest kept. A closed subscriber loses nothing counted.
func TestSkipAhead(t *testing.T) {
	var dropped int64
	l := newLog(4, &dropped)
	slow, gone := l.Subscribe(), l.Subscribe()
	gone.Close()
	for i := 0; i < 10; i++ {
		l.Publish(event{})
	}
	if dropped != 6 || l.Dropped() != 6 {
		t.Fatalf("dropped %d (%d), want 6", dropped, l.Dropped())
	}
	evs, _ := slow.Read(nil)
	if len(evs) != 4 || evs[0].seq != 7 || evs[3].seq != 10 {
		t.Fatalf("read %+v, want 7..10", evs)
	}
	if evs, _ := gone.Read(nil); len(evs) != 4 || evs[0].seq != 7 {
		t.Fatalf("closed subscriber read %+v, want 7..10", evs)
	}
	if late, _ := l.Subscribe().Read(nil); len(late) != 4 || late[0].seq != 7 {
		t.Fatalf("late subscriber replays %+v", late)
	}
}

// TestConcurrentPublishers: events of several publishers reach every
// subscriber that keeps reading, each once, in one order numbered 1..n.
func TestConcurrentPublishers(t *testing.T) {
	const publishers, each = 4, 2000
	l := newLog(publishers*each, nil)
	subs := make([]*Sub[event], 3)
	for i := range subs {
		subs[i] = l.Subscribe()
	}
	got := make([][]event, len(subs))
	var readers, writers sync.WaitGroup
	for i, sub := range subs {
		readers.Add(1)
		go func() {
			defer readers.Done()
			got[i] = readAll(t, sub)
		}()
	}
	for p := 0; p < publishers; p++ {
		writers.Add(1)
		go func() {
			defer writers.Done()
			for i := 0; i < each; i++ {
				l.Publish(event{from: p})
			}
		}()
	}
	writers.Wait()
	l.Close()
	readers.Wait()
	for i, evs := range got {
		if len(evs) != publishers*each {
			t.Fatalf("subscriber %d read %d events", i, len(evs))
		}
		for k, ev := range evs {
			if ev.seq != int64(k+1) || ev != got[0][k] {
				t.Fatalf("subscriber %d event %d = %+v, first subscriber's %+v", i, k, ev, got[0][k])
			}
		}
	}
	if l.Dropped() != 0 {
		t.Fatalf("dropped %d", l.Dropped())
	}
}
