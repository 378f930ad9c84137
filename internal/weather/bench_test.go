package weather

import (
	"testing"
	"time"
)

// BenchmarkCloudSeriesMonth measures sampling one location's hourly cloud
// cover for 30 days (48 modes x 720 steps).
func BenchmarkCloudSeriesMonth(b *testing.B) {
	start := time.Date(2017, 6, 1, 0, 0, 0, 0, time.UTC)
	f, err := NewField(DefaultFieldConfig(1), start, 30*24, 42)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		f.CloudSeries(42.3, -72.5)
	}
}

// BenchmarkStationGridQuick measures building Figure 5's quick-scale
// public station grid: 35-47N x 89-71W at 0.75 degrees (425 stations),
// each sampled hourly over 90 days.
func BenchmarkStationGridQuick(b *testing.B) {
	start := time.Date(2017, 1, 1, 0, 0, 0, 0, time.UTC)
	f, err := NewField(DefaultFieldConfig(942), start, 90*24, 41)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StationGrid(f, 35, 47, -89, -71, 0.75); err != nil {
			b.Fatal(err)
		}
	}
}
