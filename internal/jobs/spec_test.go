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
	}
	for name, body := range cases {
		if _, err := DecodeSpec([]byte(body)); err == nil {
			t.Errorf("%s: accepted %s", name, body)
		}
	}
}
