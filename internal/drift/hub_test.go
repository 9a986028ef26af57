package drift

import "testing"

func TestHubReplayAndLive(t *testing.T) {
	h := NewHub()
	for i := 0; i < 3; i++ {
		h.Publish(AlarmEvent{Rule: "r", Type: AlarmFired})
	}
	sub := h.Subscribe()
	defer sub.Close()
	replay, _ := sub.Read(nil)
	if len(replay) != 3 {
		t.Fatalf("replay %d events, want 3", len(replay))
	}
	for i, ev := range replay {
		if ev.Seq != int64(i+1) {
			t.Fatalf("replay[%d].Seq = %d, want %d", i, ev.Seq, i+1)
		}
	}
	pub := h.Publish(AlarmEvent{Rule: "r", Type: AlarmCleared})
	if pub.Seq != 4 {
		t.Fatalf("published Seq %d, want 4", pub.Seq)
	}
	<-sub.Wake()
	live, done := sub.Read(nil)
	if len(live) != 1 || live[0].Seq != 4 || live[0].Type != AlarmCleared || done {
		t.Fatalf("live events %+v (done %v)", live, done)
	}
}

func TestHubBoundedReplay(t *testing.T) {
	h := NewHub()
	for i := 0; i < hubReplay+50; i++ {
		h.Publish(AlarmEvent{Rule: "r"})
	}
	sub := h.Subscribe()
	defer sub.Close()
	replay, _ := sub.Read(nil)
	if len(replay) != hubReplay {
		t.Fatalf("replay %d events, want %d", len(replay), hubReplay)
	}
	if replay[0].Seq != 51 {
		t.Fatalf("oldest replayed Seq %d, want 51", replay[0].Seq)
	}
}

// TestHubSlowSubscriberDrops: a subscriber that falls a whole replay
// bound behind loses the events that leave the hub, counted, and then
// reads on from the oldest event kept.
func TestHubSlowSubscriberDrops(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe()
	defer sub.Close()
	for i := 0; i < hubReplay+10; i++ {
		h.Publish(AlarmEvent{Rule: "r"})
	}
	if h.Dropped() != 10 {
		t.Fatalf("dropped %d, want 10", h.Dropped())
	}
	if evs, _ := sub.Read(nil); len(evs) != hubReplay || evs[0].Seq != 11 {
		t.Fatalf("read %d events from seq %d, want %d from 11", len(evs), evs[0].Seq, hubReplay)
	}
}

func TestHubClose(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe()
	defer sub.Close()
	h.Close()
	<-sub.Wake()
	if evs, done := sub.Read(nil); len(evs) != 0 || !done {
		t.Fatalf("after close: %+v, done %v", evs, done)
	}
	// Post-close publishes and subscribes are inert, not panics.
	h.Publish(AlarmEvent{Rule: "r"})
	sub2 := h.Subscribe()
	defer sub2.Close()
	if replay, done := sub2.Read(nil); len(replay) != 0 || !done {
		t.Fatalf("post-close replay %d events, done %v", len(replay), done)
	}
	// Double close is safe.
	sub.Close()
	sub.Close()
}
