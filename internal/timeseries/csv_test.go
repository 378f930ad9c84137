package timeseries

import (
	"encoding/csv"
	"math"
	"strconv"
	"strings"
	"testing"
	"time"
)

// TestWriteCSV pins the written text: a header row, then one RFC 3339
// timestamp and shortest round-trip float per sample, at a 5-minute step
// and at a 90 s step that is not a whole number of minutes.
func TestWriteCSV(t *testing.T) {
	tests := []struct {
		step   time.Duration
		values []float64
		want   string
	}{
		{5 * time.Minute, []float64{1.5, -2, 0, 1e6, 0.000125}, `timestamp,value
2017-06-01T00:00:00Z,1.5
2017-06-01T00:05:00Z,-2
2017-06-01T00:10:00Z,0
2017-06-01T00:15:00Z,1e+06
2017-06-01T00:20:00Z,0.000125
`},
		{90 * time.Second, []float64{3, 1, 4}, `timestamp,value
2017-06-01T00:00:00Z,3
2017-06-01T00:01:30Z,1
2017-06-01T00:03:00Z,4
`},
	}
	for _, tt := range tests {
		s, err := FromValues(testStart, tt.step, tt.values)
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		if err := s.WriteCSV(&b); err != nil {
			t.Fatalf("step %v: %v", tt.step, err)
		}
		if got := b.String(); got != tt.want {
			t.Errorf("step %v: WriteCSV wrote\n%s\nwant\n%s", tt.step, got, tt.want)
		}
	}
}

// readBack parses WriteCSV's output with the standard CSV reader, checking
// the header, and returns each row's timestamp and value.
func readBack(t *testing.T, text string) ([]time.Time, []float64) {
	t.Helper()
	recs, err := csv.NewReader(strings.NewReader(text)).ReadAll()
	if err != nil {
		t.Fatalf("written CSV does not parse: %v", err)
	}
	if len(recs) == 0 || recs[0][0] != "timestamp" || recs[0][1] != "value" {
		t.Fatalf("header = %v", recs)
	}
	times := make([]time.Time, 0, len(recs)-1)
	values := make([]float64, 0, len(recs)-1)
	for _, rec := range recs[1:] {
		ts, err := time.Parse(time.RFC3339, rec[0])
		if err != nil {
			t.Fatalf("timestamp %q: %v", rec[0], err)
		}
		v, err := strconv.ParseFloat(rec[1], 64)
		if err != nil {
			t.Fatalf("value %q: %v", rec[1], err)
		}
		times = append(times, ts)
		values = append(values, v)
	}
	return times, values
}

func writeCSV(t *testing.T, s *Series) string {
	t.Helper()
	var b strings.Builder
	if err := s.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	return b.String()
}

// TestCSVRoundTrip checks that every written value, including ones that need
// an exponent, reads back bit-exactly at its sample's timestamp.
func TestCSVRoundTrip(t *testing.T) {
	s, _ := FromValues(testStart, 5*time.Minute, []float64{1.5, -2, 0, 1e6, 0.000125, 1.0 / 3, math.Pi * 1e-300})
	times, values := readBack(t, writeCSV(t, s))
	if len(values) != s.Len() {
		t.Fatalf("read back %d rows, want %d", len(values), s.Len())
	}
	for i := range s.Values {
		if !times[i].Equal(s.TimeAt(i)) {
			t.Errorf("row %d time %v, want %v", i, times[i], s.TimeAt(i))
		}
		if values[i] != s.Values[i] {
			t.Errorf("value %d: %v != %v", i, values[i], s.Values[i])
		}
	}
}

// TestCSVRoundTripNonMinuteSteps checks the step is recoverable from the
// written timestamps at resolutions other than the 1-minute default,
// including one (90s) that is not a whole number of minutes.
func TestCSVRoundTripNonMinuteSteps(t *testing.T) {
	for _, step := range []time.Duration{time.Second, 10 * time.Second, 90 * time.Second, time.Hour, 6 * time.Hour} {
		s, err := FromValues(testStart, step, []float64{3, 1, 4, 1, 5})
		if err != nil {
			t.Fatal(err)
		}
		times, _ := readBack(t, writeCSV(t, s))
		if len(times) != s.Len() || !times[0].Equal(s.Start) {
			t.Fatalf("step %v: read back %d rows from %v", step, len(times), times)
		}
		for i := 1; i < len(times); i++ {
			if got := times[i].Sub(times[i-1]); got != step {
				t.Errorf("step %v: rows %d-%d are %v apart", step, i-1, i, got)
			}
		}
	}
}

// TestCSVSingleRow covers a one-sample series: the header and a single row,
// with no step written anywhere.
func TestCSVSingleRow(t *testing.T) {
	s, err := FromValues(testStart, time.Minute, []float64{42})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := writeCSV(t, s), "timestamp,value\n2017-06-01T00:00:00Z,42\n"; got != want {
		t.Errorf("WriteCSV wrote %q, want %q", got, want)
	}
}
