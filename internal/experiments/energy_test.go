package experiments

import (
	"context"
	"math"
	"strconv"
	"strings"
	"testing"
)

func TestFigure1CSVExport(t *testing.T) {
	rows, err := Figure1CSV(Options{Quick: true, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	if rows[0] != "minute,power_a_w,occ_a,power_b_w,occ_b" {
		t.Errorf("header = %q", rows[0])
	}
	if len(rows) != 1+1440 {
		t.Fatalf("rows = %d, want header + 1440 minutes", len(rows))
	}
	for i, r := range rows[1:] {
		fields := strings.Split(r, ",")
		if len(fields) != 5 {
			t.Fatalf("row %d has %d fields: %q", i, len(fields), r)
		}
		if occ := fields[2]; occ != "0" && occ != "1" {
			t.Fatalf("row %d occupancy A = %q", i, occ)
		}
	}

	// The CSV is the data behind the f1 report RunAll renders for the same
	// options: each report row's hourly power means (to the report's 3
	// decimals, within the CSV's 0.1 W rounding) and occupancy fractions
	// come out of the CSV rows of that hour.
	reports, err := RunAll(context.Background(), []string{"f1"}, Options{Quick: true, Seed: 42}, RunAllOptions{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range reports[0].Rows {
		hour, err := strconv.Atoi(strings.TrimSuffix(row[0], ":00"))
		if err != nil {
			t.Fatal(err)
		}
		var sums [4]float64
		for _, r := range rows[1+hour*60 : 1+(hour+1)*60] {
			for i, field := range strings.Split(r, ",")[1:] {
				v, err := strconv.ParseFloat(field, 64)
				if err != nil {
					t.Fatal(err)
				}
				sums[i] += v
			}
		}
		for home, col := range []int{0, 2} {
			powerKW, err := strconv.ParseFloat(row[1+col], 64)
			if err != nil {
				t.Fatal(err)
			}
			if got := sums[col] / 60 / 1000; math.Abs(got-powerKW) > 0.00055 {
				t.Errorf("%s home %d: CSV mean %.4f kW, report %s kW", row[0], home, got, row[1+col])
			}
			if got := f1dp(sums[col+1] / 60); got != row[2+col] {
				t.Errorf("%s home %d: CSV occupancy %s, report %s", row[0], home, got, row[2+col])
			}
		}
	}
}

func TestFigure1Deterministic(t *testing.T) {
	a, err := Figure1HomeTraces(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Figure1HomeTraces(Options{Quick: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Rows {
		for j := range a.Rows[i] {
			if a.Rows[i][j] != b.Rows[i][j] {
				t.Fatalf("row %d col %d differs: %q vs %q", i, j, a.Rows[i][j], b.Rows[i][j])
			}
		}
	}
}
