package drift

import (
	"testing"
)

func validSpecJSON() string {
	return `{
		"id": "gender-watch",
		"dataset": "workers",
		"attributes": ["Gender"],
		"weights": {"ApprovalRate": 1},
		"window": 512,
		"half_life": 1000,
		"rules": [
			{"name": "hard", "type": "threshold", "threshold": 0.4},
			{"name": "slope", "type": "delta-over-window", "delta": 0.05, "lookback": 200},
			{"name": "drift", "type": "window-vs-baseline", "delta": 0.08, "hysteresis": 0.25, "cooldown": 50, "warmup": 100}
		]
	}`
}

func TestDecodeSpec(t *testing.T) {
	s, err := DecodeSpec([]byte(validSpecJSON()))
	if err != nil {
		t.Fatal(err)
	}
	if s.ID != "gender-watch" || s.Window != 512 || len(s.Rules) != 3 {
		t.Fatalf("decoded %+v", s)
	}
	// Source defaults fill toward the window when one is configured.
	for _, r := range s.Rules {
		if r.Source != SourceWindow {
			t.Fatalf("rule %q source %q, want window default", r.Name, r.Source)
		}
	}
}

func TestDecodeSpecRejects(t *testing.T) {
	cases := map[string]string{
		"unknown field":              `{"id":"m","dataset":"d","attributes":["A"],"weights":{"w":1},"surprise":1}`,
		"trailing data":              validSpecJSON() + `{"again":true}`,
		"trailing brace":             validSpecJSON() + `}`,
		"trailing bracket":           validSpecJSON() + `]`,
		"bad id":                     `{"id":"NOT OK","dataset":"d","attributes":["A"],"weights":{"w":1}}`,
		"no dataset":                 `{"id":"m","attributes":["A"],"weights":{"w":1}}`,
		"no attributes":              `{"id":"m","dataset":"d","weights":{"w":1}}`,
		"no weights":                 `{"id":"m","dataset":"d","attributes":["A"]}`,
		"negative bins":              `{"id":"m","dataset":"d","attributes":["A"],"weights":{"w":1},"bins":-1}`,
		"nan weight":                 `{"id":"m","dataset":"d","attributes":["A"],"weights":{"w":"nan"}}`,
		"huge window":                `{"id":"m","dataset":"d","attributes":["A"],"weights":{"w":1},"window":999999999}`,
		"inf half life":              `{"id":"m","dataset":"d","attributes":["A"],"weights":{"w":1},"half_life":1e999}`,
		"duplicate rule":             `{"id":"m","dataset":"d","attributes":["A"],"weights":{"w":1},"rules":[{"name":"r","type":"threshold","threshold":0.1},{"name":"r","type":"threshold","threshold":0.2}]}`,
		"window rule without window": `{"id":"m","dataset":"d","attributes":["A"],"weights":{"w":1},"rules":[{"name":"r","type":"threshold","threshold":0.1,"source":"window"}]}`,
	}
	for name, body := range cases {
		if _, err := DecodeSpec([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}

func TestDecodeEvents(t *testing.T) {
	evs, err := DecodeEvents([]byte(`{"events":[
		{"type":"join","worker":"w1","protected":{"Gender":"Female"},"score":0.7},
		{"type":"rescore","worker":"w1","score":0.4},
		{"type":"leave","worker":"w1"}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(evs) != 3 || evs[0].Type != EventJoin || evs[2].Worker != "w1" {
		t.Fatalf("decoded %+v", evs)
	}
	bad := map[string]string{
		"empty batch":       `{"events":[]}`,
		"unknown field":     `{"events":[{"type":"join","worker":"w","protected":{"G":"g"},"banana":1}]}`,
		"no worker":         `{"events":[{"type":"join","protected":{"G":"g"}}]}`,
		"join no protected": `{"events":[{"type":"join","worker":"w"}]}`,
		"unknown type":      `{"events":[{"type":"promote","worker":"w"}]}`,
		"trailing":          `{"events":[{"type":"leave","worker":"w"}]} true`,
		"trailing brace":    `{"events":[{"type":"leave","worker":"w"}]}}`,
		"trailing bracket":  `{"events":[{"type":"leave","worker":"w"}]}]`,
	}
	for name, body := range bad {
		if _, err := DecodeEvents([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}
