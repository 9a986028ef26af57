package cluster

import (
	"encoding/json"
	"strings"
	"testing"
)

func TestDecodePing(t *testing.T) {
	good := `{"node_id":"n1","epoch":3,"queued":2,"running":1,"claimed":0,"datasets":["demo"]}`
	p, err := DecodePing([]byte(good))
	if err != nil {
		t.Fatalf("good ping rejected: %v", err)
	}
	if p.NodeID != "n1" || p.Epoch != 3 || p.Queued != 2 || len(p.Datasets) != 1 {
		t.Fatalf("ping decoded wrong: %+v", p)
	}
	bad := map[string]string{
		"unknown field":  `{"node_id":"n1","bogus":true}`,
		"trailing data":  `{"node_id":"n1"} {"x":1}`,
		"missing id":     `{"queued":1}`,
		"negative depth": `{"node_id":"n1","queued":-1}`,
		"huge id":        `{"node_id":"` + strings.Repeat("x", maxWireNodeID+1) + `"}`,
		"empty ds name":  `{"node_id":"n1","datasets":[""]}`,
		"not json":       `]][[`,
		"wrong type":     `{"node_id":42}`,
	}
	for name, body := range bad {
		if _, err := DecodePing([]byte(body)); err == nil {
			t.Errorf("%s: accepted %q", name, body)
		}
	}
}

func TestDecodeStealRequest(t *testing.T) {
	req, err := DecodeStealRequest([]byte(`{"thief":"n2","max":8,"datasets":["demo","other"]}`))
	if err != nil {
		t.Fatalf("good steal request rejected: %v", err)
	}
	if req.Thief != "n2" || req.Max != 8 {
		t.Fatalf("steal request decoded wrong: %+v", req)
	}
	bad := []string{
		`{"thief":"n2"}`,          // max missing (0)
		`{"thief":"n2","max":-1}`, // negative
		`{"thief":"","max":4}`,    // empty thief
		`{"thief":"n2","max":4,"datasets":[` + strings.Repeat(`"d",`, maxWireDatasets) + `"d"]}`,
		`{"max":999999,"thief":"n2"}`, // over batch bound
	}
	for _, body := range bad {
		if _, err := DecodeStealRequest([]byte(body)); err == nil {
			t.Errorf("accepted %.60q", body)
		}
	}
}

func TestDecodeStealResponse(t *testing.T) {
	good := `{"claims":[{"token":"t1","job_id":"job-1","spec_hash":"abc","spec":{"dataset":"demo"}}]}`
	resp, err := DecodeStealResponse([]byte(good))
	if err != nil {
		t.Fatalf("good steal response rejected: %v", err)
	}
	if len(resp.Claims) != 1 || resp.Claims[0].Token != "t1" {
		t.Fatalf("steal response decoded wrong: %+v", resp)
	}
	if string(resp.Claims[0].Spec) != `{"dataset":"demo"}` {
		t.Fatalf("spec not preserved raw: %s", resp.Claims[0].Spec)
	}
	if _, err := DecodeStealResponse([]byte(`{}`)); err != nil {
		t.Fatalf("empty claim batch should be valid: %v", err)
	}
	bad := []string{
		`{"claims":[{"token":"","job_id":"j","spec_hash":"h","spec":{}}]}`,
		`{"claims":[{"token":"t","job_id":"j","spec_hash":"","spec":{}}]}`,
		`{"claims":[{"token":"t","job_id":"j","spec_hash":"h"}]}`, // no spec
		`{"claims":[{"token":"` + strings.Repeat("t", maxWireToken+1) + `","job_id":"j","spec_hash":"h","spec":{}}]}`,
	}
	for _, body := range bad {
		if _, err := DecodeStealResponse([]byte(body)); err == nil {
			t.Errorf("accepted %.80q", body)
		}
	}
}

func TestDecodeAckRequest(t *testing.T) {
	req, err := DecodeAckRequest([]byte(`{"thief":"n2","tokens":["t1","t2"]}`))
	if err != nil {
		t.Fatalf("good ack rejected: %v", err)
	}
	if len(req.Tokens) != 2 {
		t.Fatalf("ack decoded wrong: %+v", req)
	}
	bad := []string{
		`{"thief":"n2","tokens":[]}`,
		`{"thief":"n2"}`,
		`{"tokens":["t"]}`,
		`{"thief":"n2","tokens":[""]}`,
	}
	for _, body := range bad {
		if _, err := DecodeAckRequest([]byte(body)); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
}

// TestDecodersRoundTrip: every message the package emits must survive
// its own strict decoder — the encoder and the bounds can't drift apart.
func TestDecodersRoundTrip(t *testing.T) {
	ping := PingStatus{NodeID: "n1", Epoch: 7, Queued: 1, Running: 2, Claimed: 3, Datasets: []string{"a", "b"}}
	b, _ := json.Marshal(ping)
	if got, err := DecodePing(b); err != nil || got.Epoch != ping.Epoch {
		t.Fatalf("ping round trip: %+v, %v", got, err)
	}
	steal := StealRequest{Thief: "n2", Max: 8, Datasets: []string{"a"}}
	b, _ = json.Marshal(steal)
	if got, err := DecodeStealRequest(b); err != nil || got.Max != 8 {
		t.Fatalf("steal request round trip: %+v, %v", got, err)
	}
	resp := StealResponse{Claims: []StealClaim{{Token: "t", JobID: "j", SpecHash: "h", Spec: json.RawMessage(`{}`)}}}
	b, _ = json.Marshal(resp)
	if got, err := DecodeStealResponse(b); err != nil || len(got.Claims) != 1 {
		t.Fatalf("steal response round trip: %+v, %v", got, err)
	}
	ack := AckRequest{Thief: "n2", Tokens: []string{"t"}}
	b, _ = json.Marshal(ack)
	if got, err := DecodeAckRequest(b); err != nil || len(got.Tokens) != 1 {
		t.Fatalf("ack round trip: %+v, %v", got, err)
	}
}
