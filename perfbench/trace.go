package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// keptSpans caps the op spans each load goroutine keeps for the trace
// file; every op still counts toward the self-time totals.
const keptSpans = 5000

// opSpan is one traced operation: the op span (issue until completion is
// observed) and its two children, admit (the *Async call) and wait (the
// Wait call). Times are ns since the phase origin.
type opSpan struct {
	tid                       int
	seq                       uint64
	start, admitEnd, waitFrom int64
	end                       int64
}

// spanLog holds one load goroutine's spans in memory until the run
// ends.
type spanLog struct {
	origin time.Time
	tid    int

	ops                   uint64
	opNs, admitNs, waitNs int64
	admit                 []int64 // admit durations, for percentiles
	kept                  []opSpan
}

func newSpanLog(origin time.Time, tid int) *spanLog {
	return &spanLog{origin: origin, tid: tid}
}

func (l *spanLog) op(seq uint64, start, admitEnd, waitFrom, end time.Time) {
	s := opSpan{
		tid:      l.tid,
		seq:      seq,
		start:    int64(start.Sub(l.origin)),
		admitEnd: int64(admitEnd.Sub(l.origin)),
		waitFrom: int64(waitFrom.Sub(l.origin)),
		end:      int64(end.Sub(l.origin)),
	}
	l.ops++
	l.opNs += s.end - s.start
	l.admitNs += s.admitEnd - s.start
	l.waitNs += s.end - s.waitFrom
	l.admit = append(l.admit, s.admitEnd-s.start)
	if len(l.kept) < keptSpans {
		l.kept = append(l.kept, s)
	}
}

func (l *spanLog) merge(o *spanLog) {
	l.ops += o.ops
	l.opNs += o.opNs
	l.admitNs += o.admitNs
	l.waitNs += o.waitNs
	l.admit = append(l.admit, o.admit...)
	l.kept = append(l.kept, o.kept...)
}

// writeTrace writes the kept op spans and the device spans as Chrome
// trace-event JSON (viewable in Perfetto): process 1 holds one thread
// per load goroutine, process 2 one thread per device queue pair.
// Device spans are shifted by shift ns onto the op spans' time axis.
func writeTrace(path string, ops []opSpan, dev []devSpan, shift int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	fmt.Fprint(w, "[")
	sep := ""
	ev := func(name string, pid, tid int, id uint64, parent uint64, start, end int64) {
		fmt.Fprintf(w, `%s{"name":%q,"ph":"X","pid":%d,"tid":%d,"ts":%.3f,"dur":%.3f,"args":{"id":%d,"parent":%d}}`,
			sep, name, pid, tid, float64(start)/1e3, float64(end-start)/1e3, id, parent)
		sep = ",\n"
	}
	for _, s := range ops {
		id := uint64(s.tid)<<48 | s.seq
		ev("op", 1, s.tid, id, 0, s.start, s.end)
		ev("admit", 1, s.tid, id<<1, id, s.start, s.admitEnd)
		ev("wait", 1, s.tid, id<<1|1, id, s.waitFrom, s.end)
	}
	names := [3]string{"device.read", "device.write", "device.flush"}
	for i, s := range dev {
		if i >= 3*keptSpans {
			break
		}
		ev(names[s.op], 2, s.qp, uint64(i), 0, s.start-shift, s.end-shift)
	}
	fmt.Fprint(w, "]\n")
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
