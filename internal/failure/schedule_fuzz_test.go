package failure

import (
	"math"
	"reflect"
	"testing"
)

// FuzzParseSchedule feeds arbitrary -schedule strings to ParseSchedule.
// Oracle: it returns an error or a schedule that validates, has finite
// offsets, and parses back from its own String() to the same pulses (the
// round trip String promises). The seed corpus lives in
// testdata/fuzz/FuzzParseSchedule.
func FuzzParseSchedule(f *testing.F) {
	f.Fuzz(func(t *testing.T, spec string) {
		s, err := ParseSchedule(spec)
		if err != nil {
			return
		}
		if err := s.Validate(); err != nil {
			t.Fatalf("ParseSchedule(%q) returned an invalid schedule: %v", spec, err)
		}
		for i, p := range s.Pulses {
			if math.IsInf(p.After, 0) || math.IsNaN(p.After) {
				t.Fatalf("ParseSchedule(%q) pulse %d has offset %v", spec, i, p.After)
			}
		}
		back, err := ParseSchedule(s.String())
		if err != nil {
			t.Fatalf("ParseSchedule(%q) = %s, which does not parse back: %v", spec, s, err)
		}
		if !reflect.DeepEqual(back.Pulses, s.Pulses) {
			t.Fatalf("ParseSchedule(%q) = %v, round trip gives %v", spec, s.Pulses, back.Pulses)
		}
	})
}
