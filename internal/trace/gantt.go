package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"
)

// RenderGantt writes an ASCII Gantt chart of the trace: one row per task,
// time flowing left to right across `width` columns, with the read (r),
// compute (#), and write (w) phases distinguished. Rows are sorted by
// start time. Tasks shorter than one column still get one glyph so nothing
// disappears.
//
//	stage_in  [ww                                ]
//	resample  [  rrr############ww               ]
//	combine   [                 rr#######w       ]
func (t *Trace) RenderGantt(w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	if t.makespan <= 0 || len(t.Records()) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	records := append([]*TaskRecord{}, t.Records()...)
	sort.SliceStable(records, func(i, j int) bool {
		//bbvet:allow float-compare -- sort tie-break: exact equality falls through to the TaskID tie-breaker for a deterministic order
		if records[i].StartedAt != records[j].StartedAt {
			return records[i].StartedAt < records[j].StartedAt
		}
		return records[i].TaskID < records[j].TaskID
	})
	nameWidth := 0
	for _, r := range records {
		if len(r.TaskID) > nameWidth {
			nameWidth = len(r.TaskID)
		}
	}
	if nameWidth > 24 {
		nameWidth = 24
	}
	col := func(time float64) int {
		c := int(time / t.makespan * float64(width))
		if c >= width {
			c = width - 1
		}
		if c < 0 {
			c = 0
		}
		return c
	}
	for _, r := range records {
		row := make([]byte, width)
		for i := range row {
			row[i] = ' '
		}
		paint := func(from, to float64, glyph byte) {
			if to <= from {
				return
			}
			for i := col(from); i <= col(to-1e-12) && i < width; i++ {
				row[i] = glyph
			}
		}
		paint(r.StartedAt, r.ReadDoneAt, 'r')
		paint(r.ReadDoneAt, r.ComputeDone, '#')
		paint(r.ComputeDone, r.FinishedAt, 'w')
		// Guarantee at least one glyph for very short tasks.
		if strings.TrimSpace(string(row)) == "" {
			row[col(r.StartedAt)] = '#'
		}
		name := r.TaskID
		if len(name) > nameWidth {
			name = name[:nameWidth-1] + "…"
		}
		if _, err := fmt.Fprintf(w, "%-*s [%s]\n", nameWidth, name, string(row)); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%-*s  0%s%.2fs\n", nameWidth, "", strings.Repeat(" ", width-len(fmt.Sprintf("%.2fs", t.makespan))), t.makespan)
	return err
}
