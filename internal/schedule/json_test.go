package schedule

import (
	"bytes"
	"reflect"
	"strings"
	"testing"

	"logpopt/internal/logp"
)

func TestJSONRoundTrip(t *testing.T) {
	s := &Schedule{M: logp.MustNew(4, 6, 2, 4)}
	wire(s, 0, 1, 0, 7)
	wire(s, 1, 2, 10, 7)
	s.Compute(2, 20, 3, 1)
	var buf bytes.Buffer
	if err := s.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.M != s.M {
		t.Fatalf("machine %v, want %v", got.M, s.M)
	}
	if !reflect.DeepEqual(got.Events, s.Events) {
		t.Fatalf("events differ:\ngot  %v\nwant %v", got.Events, s.Events)
	}
	// Round-tripped schedule must validate identically.
	if vs := Validate(got); len(vs) != len(Validate(s)) {
		t.Fatal("validation changed across round trip")
	}
}

func TestReadJSONRejects(t *testing.T) {
	cases := []struct {
		name, in string
	}{
		{"garbage", "not json"},
		{"bad version", `{"version":9,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[]}`},
		{"bad machine", `{"version":1,"machine":{"p":0,"l":1,"o":0,"g":1},"events":[]}`},
		{"bad op", `{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[{"proc":0,"time":0,"op":"zap","item":0}]}`},
		{"unknown field", `{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[],"extra":1}`},
		{"trailing document", `{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[]} {"junk":1}`},
		{"trailing garbage", `{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[]}` + "\nx"},
		{"trailing bracket", `{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[]}]`},
	}
	for _, c := range cases {
		if _, err := ReadJSON(strings.NewReader(c.in)); err == nil {
			t.Errorf("%s: accepted", c.name)
		}
	}
	// Trailing whitespace is not data.
	if _, err := ReadJSON(strings.NewReader(`{"version":1,"machine":{"p":2,"l":1,"o":0,"g":1},"events":[]}` + " \n\t\n")); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}
