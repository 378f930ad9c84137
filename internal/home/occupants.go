package home

import (
	"cmp"
	"math/rand"
	"slices"
	"time"

	"privmem/internal/stats"
	"privmem/internal/timeseries"
)

// interval is a half-open absence interval [from, to) for one occupant.
type interval struct {
	from, to time.Time
}

// occupantModel holds each occupant's per-day wake/sleep times and absence
// intervals for the whole simulation.
type occupantModel struct {
	cfg Config
	// absences[o] lists when occupant o is away.
	absences [][]interval
	// wake[d] and sleep[d] are the household's awake bounds on day d,
	// expressed as decimal hours.
	wake, sleep []float64
}

func newOccupantModel(cfg Config, rng *rand.Rand) *occupantModel {
	m := &occupantModel{
		cfg:      cfg,
		absences: make([][]interval, cfg.Occupants),
		wake:     make([]float64, cfg.Days),
		sleep:    make([]float64, cfg.Days),
	}
	for d := 0; d < cfg.Days; d++ {
		m.wake[d] = stats.TruncNormal(rng, cfg.WakeHour, cfg.ScheduleJitterH/2, cfg.WakeHour-1.5, cfg.WakeHour+1.5)
		m.sleep[d] = stats.TruncNormal(rng, cfg.SleepHour, cfg.ScheduleJitterH/2, cfg.SleepHour-1.5, 24)
	}
	vacation := make(map[int]bool, len(cfg.VacationDays))
	for _, d := range cfg.VacationDays {
		vacation[d] = true
	}
	for o := 0; o < cfg.Occupants; o++ {
		for d := 0; d < cfg.Days; d++ {
			dayStart := cfg.Start.Add(time.Duration(d) * 24 * time.Hour)
			if vacation[d] {
				m.absences[o] = append(m.absences[o], interval{
					from: dayStart,
					to:   dayStart.Add(24 * time.Hour),
				})
				continue
			}
			weekday := dayStart.Weekday()
			isWeekend := weekday == time.Saturday || weekday == time.Sunday
			switch {
			case !isWeekend && rng.Float64() < cfg.EmploymentProb:
				leave := stats.TruncNormal(rng, cfg.LeaveHour, cfg.ScheduleJitterH, m.wake[d], 12)
				ret := stats.TruncNormal(rng, cfg.ReturnHour, cfg.ScheduleJitterH, leave+1, 23)
				m.absences[o] = append(m.absences[o], interval{
					from: hourOffset(dayStart, leave),
					to:   hourOffset(dayStart, ret),
				})
			case isWeekend && rng.Float64() < cfg.WeekendErrandProb:
				start := stats.TruncNormal(rng, 13, 2.5, m.wake[d]+1, 19)
				dur := 1 + 2*rng.Float64()
				m.absences[o] = append(m.absences[o], interval{
					from: hourOffset(dayStart, start),
					to:   hourOffset(dayStart, start+dur),
				})
			}
		}
	}
	return m
}

func hourOffset(dayStart time.Time, h float64) time.Time {
	return dayStart.Add(time.Duration(h * float64(time.Hour)))
}

// presentAt reports whether occupant o is home at t.
func (m *occupantModel) presentAt(o int, t time.Time) bool {
	for _, iv := range m.absences[o] {
		if !t.Before(iv.from) && t.Before(iv.to) {
			return false
		}
	}
	return true
}

// anyoneHome reports whether at least one occupant is home at t.
func (m *occupantModel) anyoneHome(t time.Time) bool {
	for o := 0; o < m.cfg.Occupants; o++ {
		if m.presentAt(o, t) {
			return true
		}
	}
	return false
}

// awakeAt reports whether the household is inside the awake window at t.
func (m *occupantModel) awakeAt(t time.Time) bool {
	d := int(t.Sub(m.cfg.Start) / (24 * time.Hour))
	if d < 0 || d >= m.cfg.Days {
		return false
	}
	hh, mm, ss := t.Clock()
	h := float64(hh) + float64(mm)/60 + float64(ss)/3600
	return h >= m.wake[d] && h < m.sleep[d]
}

// fill writes the binary occupancy and active ground-truth series. Each
// occupant's absences are painted onto the step grid once, as merged index
// spans in a difference array, so the pass costs O(steps + absences)
// instead of scanning every absence at every step; the series equal a
// per-step presentAt/anyoneHome/awakeAt evaluation exactly, for any
// occupant count and for unsorted or overlapping intervals.
func (m *occupantModel) fill(occupancy, active *timeseries.Series) {
	n := occupancy.Len()
	// Prefix sums of away give the number of occupants absent at each step.
	away := make([]int, n+1)
	var spans [][2]int
	for _, absences := range m.absences {
		spans = spans[:0]
		for _, iv := range absences {
			if lo, hi := firstStepFrom(occupancy, iv.from), firstStepFrom(occupancy, iv.to); lo < hi {
				spans = append(spans, [2]int{lo, hi})
			}
		}
		// Merge overlapping spans so one occupant counts once per step.
		slices.SortFunc(spans, func(a, b [2]int) int { return cmp.Compare(a[0], b[0]) })
		for j := 0; j < len(spans); {
			lo, hi := spans[j][0], spans[j][1]
			for j++; j < len(spans) && spans[j][0] <= hi; j++ {
				hi = max(hi, spans[j][1])
			}
			away[lo]++
			away[hi]--
		}
	}
	absent := 0
	for i := 0; i < n; i++ {
		absent += away[i]
		if absent < len(m.absences) {
			occupancy.Values[i] = 1
			if m.awakeAt(occupancy.TimeAt(i)) {
				active.Values[i] = 1
			}
		}
	}
}

// firstStepFrom returns the first index i of s with s.TimeAt(i) at or after
// t, clamped to [0, s.Len()]: the ceiling of (t - Start) / Step.
func firstStepFrom(s *timeseries.Series, t time.Time) int {
	d := t.Sub(s.Start)
	i := int(d / s.Step)
	if d%s.Step > 0 {
		i++
	}
	return min(max(i, 0), s.Len())
}

// wakeOn returns the wake hour for simulation day d (clamped).
func (m *occupantModel) wakeOn(d int) float64 {
	if d < 0 || d >= len(m.wake) {
		return m.cfg.WakeHour
	}
	return m.wake[d]
}
