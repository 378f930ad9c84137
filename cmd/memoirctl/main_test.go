package main

import (
	"bytes"
	"regexp"
	"strconv"
	"testing"
)

func TestRunArgHandling(t *testing.T) {
	tests := []struct {
		name string
		args []string
		want int
	}{
		{name: "no args", args: nil, want: 2},
		{name: "unknown command", args: []string{"frobnicate"}, want: 2},
		{name: "bad flag", args: []string{"simulate", "-bogus"}, want: 2},
		{name: "simulate tiny", args: []string{"simulate", "-days", "1", "-seed", "3"}, want: 0},
		{name: "attack tiny", args: []string{"attack", "-days", "1"}, want: 0},
		{name: "defend tiny", args: []string{"defend", "-days", "2"}, want: 0},
		{name: "fingerprint tiny", args: []string{"fingerprint", "-days", "1"}, want: 0},
		{name: "figures quick one", args: []string{"figures", "-quick", "-id", "f6"}, want: 0},
		{name: "figures quick parallel", args: []string{"figures", "-quick", "-id", "f1,f6", "-workers", "2"}, want: 0},
		{name: "figures unknown id", args: []string{"figures", "-quick", "-id", "zz"}, want: 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := run(tt.args); got != tt.want {
				t.Errorf("run(%v) = %d, want %d", tt.args, got, tt.want)
			}
		})
	}
}

// TestFleetReportsPeakHeap runs a small fleet through cmdFleet and checks
// that the peak-heap line is printed with a positive per-home figure
// beside the retained-heap line.
func TestFleetReportsPeakHeap(t *testing.T) {
	var out bytes.Buffer
	if err := cmdFleet(&out, 3, 60, 2, 1, "", true); err != nil {
		t.Fatal(err)
	}
	if !regexp.MustCompile(`memory +\d+ bytes/home retained`).Match(out.Bytes()) {
		t.Fatalf("no retained-heap line in:\n%s", out.String())
	}
	m := regexp.MustCompile(`peak heap +(\d+) bytes/home in use`).FindSubmatch(out.Bytes())
	if m == nil {
		t.Fatalf("no peak-heap line in:\n%s", out.String())
	}
	if n, err := strconv.Atoi(string(m[1])); err != nil || n <= 0 {
		t.Fatalf("peak heap = %s bytes/home, want > 0", m[1])
	}
}
