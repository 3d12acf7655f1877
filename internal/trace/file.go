package trace

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// Source produces a dynamic instruction stream. Gen (synthetic) and
// FileSource (recorded traces) both implement it, so the timing model can
// run either.
type Source interface {
	Next() Instr
}

// BatchSource is an optional Source extension: the consumer hands over a
// buffer and gets it refilled in one call, amortising the per-instruction
// interface dispatch. A BatchSource must draw exactly the stream repeated
// Next calls would, so the two access styles can be mixed freely.
type BatchSource interface {
	Source
	NextBatch(dst []Instr) int
}

var (
	_ Source      = (*Gen)(nil)
	_ BatchSource = (*Gen)(nil)
)

// The trace text format, one instruction per line:
//
//	L <hexaddr> [dep1 dep2]    load
//	S <hexaddr> [dep1 dep2]    store
//	B [m] [dep1 dep2]          branch, "m" = mispredicted
//	A | M | F | X [dep1 dep2]  int ALU | int mul | FP ALU | FP mul
//	# ...                      comment
//
// Dependencies are optional producer distances (0 = none, at most
// MaxDepDistance).

// WriteTrace serializes n instructions from src.
func WriteTrace(w io.Writer, src Source, n int) error {
	bw := bufio.NewWriter(w)
	for i := 0; i < n; i++ {
		in := src.Next()
		var err error
		switch in.Op {
		case OpLoad:
			_, err = fmt.Fprintf(bw, "L %#x %d %d\n", in.Addr, in.Dep1, in.Dep2)
		case OpStore:
			_, err = fmt.Fprintf(bw, "S %#x %d %d\n", in.Addr, in.Dep1, in.Dep2)
		case OpBranch:
			if in.Mispredict {
				_, err = fmt.Fprintf(bw, "B m %d %d\n", in.Dep1, in.Dep2)
			} else {
				_, err = fmt.Fprintf(bw, "B %d %d\n", in.Dep1, in.Dep2)
			}
		case OpIntMul:
			_, err = fmt.Fprintf(bw, "M %d %d\n", in.Dep1, in.Dep2)
		case OpFP:
			_, err = fmt.Fprintf(bw, "F %d %d\n", in.Dep1, in.Dep2)
		case OpFPMul:
			_, err = fmt.Fprintf(bw, "X %d %d\n", in.Dep1, in.Dep2)
		default:
			_, err = fmt.Fprintf(bw, "A %d %d\n", in.Dep1, in.Dep2)
		}
		if err != nil {
			return err
		}
	}
	return bw.Flush()
}

// parseDeps parses an optional trailing "dep1 dep2" pair.
func parseDeps(fields []string, lineNo int, in *Instr) error {
	if len(fields) == 0 {
		return nil
	}
	if len(fields) != 2 {
		return fmt.Errorf("trace line %d: want two dependency fields, got %d", lineNo, len(fields))
	}
	d1, err1 := strconv.Atoi(fields[0])
	d2, err2 := strconv.Atoi(fields[1])
	if err1 != nil || err2 != nil || d1 < 0 || d2 < 0 {
		return fmt.Errorf("trace line %d: bad dependencies %v", lineNo, fields)
	}
	if d1 > MaxDepDistance || d2 > MaxDepDistance {
		return fmt.Errorf("trace line %d: dependencies %v reach past %d instructions", lineNo, fields, MaxDepDistance)
	}
	in.Dep1, in.Dep2 = int16(d1), int16(d2)
	return nil
}

// FileSource replays a recorded trace. When the trace is exhausted it
// loops back to the beginning (SimPoint-style repetition), so any
// instruction budget can be run against any trace length.
type FileSource struct {
	instrs []Instr
	pos    int
}

// ParseTrace reads the whole trace into memory.
func ParseTrace(r io.Reader) (*FileSource, error) {
	var out []Instr
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		var in Instr
		switch fields[0] {
		case "L", "S":
			if len(fields) < 2 {
				return nil, fmt.Errorf("trace line %d: %s needs an address", lineNo, fields[0])
			}
			addr, err := strconv.ParseUint(strings.TrimPrefix(fields[1], "0x"), 16, 64)
			if err != nil {
				return nil, fmt.Errorf("trace line %d: bad address %q", lineNo, fields[1])
			}
			if addr%8 != 0 {
				return nil, fmt.Errorf("trace line %d: address %#x not word-aligned", lineNo, addr)
			}
			in.Addr = addr
			if fields[0] == "L" {
				in.Op = OpLoad
			} else {
				in.Op = OpStore
			}
			if err := parseDeps(fields[2:], lineNo, &in); err != nil {
				return nil, err
			}
		case "B":
			in.Op = OpBranch
			rest := fields[1:]
			if len(rest) > 0 && rest[0] == "m" {
				in.Mispredict = true
				rest = rest[1:]
			}
			if err := parseDeps(rest, lineNo, &in); err != nil {
				return nil, err
			}
		case "A", "M", "F", "X":
			switch fields[0] {
			case "A":
				in.Op = OpInt
			case "M":
				in.Op = OpIntMul
			case "F":
				in.Op = OpFP
			case "X":
				in.Op = OpFPMul
			}
			if err := parseDeps(fields[1:], lineNo, &in); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("trace line %d: unknown op %q", lineNo, fields[0])
		}
		out = append(out, in)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("trace: empty")
	}
	return &FileSource{instrs: out}, nil
}

// Len is the number of recorded instructions.
func (f *FileSource) Len() int { return len(f.instrs) }

// Next implements Source, looping at the end of the recording.
func (f *FileSource) Next() Instr {
	in := f.instrs[f.pos]
	f.pos++
	if f.pos == len(f.instrs) {
		f.pos = 0
	}
	return in
}
