package sunspot

import (
	"encoding/binary"
	"testing"
	"time"
)

// FuzzModelWindows checks the pruned forward model against the dense
// oracle on one key decoded from the input, two bytes each: a day of
// 2016–2019, a latitude on [-90, 90] and a threshold on (0, 0.5).
func FuzzModelWindows(f *testing.F) {
	f.Add([]byte{0x00, 0x4f, 0xbc, 0x4a, 0x0f, 0x5c}) // March, 42.4°N, 0.03
	f.Add([]byte{0x00, 0xaa, 0x00, 0xb6, 0x05, 0x1f}) // June, 89.5°S: polar night
	f.Add([]byte{0x01, 0x60, 0x80, 0x00, 0x66, 0x66}) // December, equator, 0.2
	f.Add([]byte{0x00, 0xab, 0xff, 0x49, 0xfa, 0xe0}) // June, 89.5°N: polar day, 0.49
	f.Fuzz(func(t *testing.T, data []byte) {
		var b [6]byte
		copy(b[:], data)
		word := func(i int) float64 { return float64(binary.BigEndian.Uint16(b[i:])) }
		day := time.Date(2016, 1, 1, 0, 0, 0, 0, time.UTC).AddDate(0, 0, int(word(0))%(4*365))
		lat := -90 + 180*word(2)/65535
		thr := 0.5 * (word(4) + 1) / 65537
		checkDense(t, NewModel().dayEphemeris(day), day, lat, thr)
	})
}
