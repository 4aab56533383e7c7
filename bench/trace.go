package bench

import (
	"bufio"
	"cmp"
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// Span is one timed call into a layer, recorded by the benchmark
// around the layer's public functions. Start and End are nanoseconds
// since the run began; Op ties every span of one driver operation
// together; Parent is the span that caused this one (0: a driver
// call).
type Span struct {
	ID     uint64 `json:"id"`
	Parent uint64 `json:"parent"`
	Op     uint64 `json:"op"`
	Name   string `json:"name"`
	Start  int64  `json:"start"`
	End    int64  `json:"end"`
}

func (s Span) dur() int64 { return s.End - s.Start }

// tracer collects the spans of one goroutine; ids are made unique
// across goroutines by the owner index in the high bits.
type tracer struct {
	owner uint64
	n     uint64
	spans []Span
}

func newTracer(owner int) *tracer { return &tracer{owner: uint64(owner+1) << 40} }

// add records a span and returns its id.
func (t *tracer) add(parent, op uint64, name string, start, end int64) uint64 {
	t.n++
	id := t.owner | t.n
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Op: op, Name: name, Start: start, End: end})
	return id
}

// end sets the end of a span add returned, for a parent recorded
// before its children.
func (t *tracer) end(id uint64, end int64) { t.spans[(id^t.owner)-1].End = end }

// selfTimes returns every span's self time: its duration minus the
// part of its interval that its child spans cover (overlapping
// children count once; a child reaching outside its parent counts
// only inside).
func selfTimes(spans []Span) map[uint64]int64 {
	kids := map[uint64][]Span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	self := make(map[uint64]int64, len(spans))
	for _, s := range spans {
		ch := kids[s.ID]
		slices.SortFunc(ch, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
		covered, edge := int64(0), s.Start
		for _, c := range ch {
			lo, hi := max(c.Start, edge), min(c.End, s.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		self[s.ID] = s.dur() - covered
	}
	return self
}

// SpanSummary is the per-name roll-up of a traced run.
type SpanSummary struct {
	Count    int     `json:"count"`
	MedianNs float64 `json:"median_ns"`
	SelfNs   float64 `json:"median_self_ns"`
}

func summarizeSpans(spans []Span) map[string]SpanSummary {
	self := selfTimes(spans)
	durs, selfs := map[string][]int64{}, map[string][]int64{}
	for _, s := range spans {
		durs[s.Name] = append(durs[s.Name], s.dur())
		selfs[s.Name] = append(selfs[s.Name], self[s.ID])
	}
	out := map[string]SpanSummary{}
	for name, d := range durs {
		out[name] = SpanSummary{Count: len(d), MedianNs: medianNs(d), SelfNs: medianNs(selfs[name])}
	}
	return out
}

// maxSpansWritten caps the span file: the wire workload records
// several hundred thousand request spans per run, and the roll-up is
// computed from all of them in memory either way.
const maxSpansWritten = 200_000

// writeSpans writes spans as JSON lines, earliest first, and returns
// how many it kept.
func writeSpans(path string, spans []Span) (int, error) {
	slices.SortFunc(spans, func(a, b Span) int { return cmp.Compare(a.Start, b.Start) })
	keep := spans[:min(len(spans), maxSpansWritten)]
	f, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range keep {
		if err := enc.Encode(&keep[i]); err != nil {
			f.Close()
			return 0, fmt.Errorf("write spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return 0, fmt.Errorf("write spans: %w", err)
	}
	return len(keep), f.Close()
}
