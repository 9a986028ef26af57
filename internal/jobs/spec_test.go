package jobs

import (
	"strconv"
	"testing"
)

func TestDecodeSpecRejects(t *testing.T) {
	const valid = `{"dataset":"d","weights":{"a":1},"significance_rounds":50}`
	if s, err := DecodeSpec([]byte(valid)); err != nil || s.SignificanceRounds != 50 {
		t.Fatalf("valid spec: %+v, %v", s, err)
	}
	cases := map[string]string{
		"unknown field":    `{"dataset":"d","weights":{"a":1},"typo":1}`,
		"second value":     valid + `{"trailing":1}`,
		"trailing brace":   valid + `}`,
		"trailing bracket": valid + `]`,
		"negative rounds":  `{"dataset":"d","weights":{"a":1},"significance_rounds":-1}`,
		"too many rounds": `{"dataset":"d","weights":{"a":1},"significance_rounds":` +
			strconv.Itoa(MaxSignificanceRounds+1) + `}`,
		"budget over cap": `{"dataset":"d","weights":{"a":1},"budget":` +
			strconv.Itoa(MaxBudget+1) + `}`,
		"no dataset":    `{"weights":{"a":1}}`,
		"snapshot":      `{"snapshot":"d","weights":{"a":1}}`,
		"digest":        `{"dataset":"d","digest":"ab12","weights":{"a":1}}`,
		"empty digest":  `{"dataset":"d","digest":"","weights":{"a":1}}`,
		"null digest":   `{"dataset":"d","digest":null,"weights":{"a":1}}`,
		"folded digest": `{"dataset":"d","Digest":"ab12","weights":{"a":1}}`,
		"no attributes": `{"dataset":"d","weights":{"a":1},"attributes":[]}`,
		"max attempts":  `{"dataset":"d","weights":{"a":1},"max_attempts":3}`,
	}
	for name, body := range cases {
		if _, err := DecodeSpec([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}
