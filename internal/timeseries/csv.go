package timeseries

import (
	"encoding/csv"
	"fmt"
	"io"
	"strconv"
	"time"
)

// WriteCSV serializes the series as two-column CSV (RFC 3339 timestamp,
// value), with a header row. The format loads directly into spreadsheet and
// plotting tools.
func (s *Series) WriteCSV(w io.Writer) error {
	cw := csv.NewWriter(w)
	if err := cw.Write([]string{"timestamp", "value"}); err != nil {
		return fmt.Errorf("timeseries csv: %w", err)
	}
	for i, v := range s.Values {
		rec := []string{
			s.TimeAt(i).Format(time.RFC3339),
			strconv.FormatFloat(v, 'g', -1, 64),
		}
		if err := cw.Write(rec); err != nil {
			return fmt.Errorf("timeseries csv: row %d: %w", i, err)
		}
	}
	cw.Flush()
	if err := cw.Error(); err != nil {
		return fmt.Errorf("timeseries csv: %w", err)
	}
	return nil
}
