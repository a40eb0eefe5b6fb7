package parallel

import (
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestMapConvertsPanicToError checks that a panicking job surfaces as a
// *PanicError instead of crashing the process, on both the serial and the
// pooled path.
func TestMapConvertsPanicToError(t *testing.T) {
	for _, workers := range []int{1, 4} {
		_, errs := MapAll(workers, 8, func(i int) (int, error) {
			if i == 3 {
				panic("boom")
			}
			return i, nil
		})
		err := errs[3]
		var pe *PanicError
		if !errors.As(err, &pe) {
			t.Fatalf("workers=%d: err = %v, want *PanicError", workers, err)
		}
		if pe.Index != 3 || pe.Value != "boom" {
			t.Fatalf("workers=%d: PanicError = %+v, want index 3 value boom", workers, pe)
		}
		if !strings.Contains(pe.Stack, "panic_test.go") {
			t.Errorf("workers=%d: stack does not point at the panic site:\n%s", workers, pe.Stack)
		}
	}
}

// TestMapAllRunsEverythingAndKeepsOrder is the quarantine contract: every
// job runs even when others fail, failures come back positionally, and the
// surviving results sit at their submission indices — so skipping failed
// indices aggregates survivors bit-identically to a serial loop.
func TestMapAllRunsEverythingAndKeepsOrder(t *testing.T) {
	for _, workers := range []int{1, 4} {
		const n = 16
		ran := make([]bool, n)
		out, errs := MapAll(workers, n, func(i int) (string, error) {
			ran[i] = true
			switch {
			case i%5 == 0:
				panic(fmt.Sprintf("panic-%d", i))
			case i%5 == 1:
				return "", fmt.Errorf("err-%d", i)
			}
			return fmt.Sprintf("ok-%d", i), nil
		})
		if len(out) != n || len(errs) != n {
			t.Fatalf("workers=%d: got %d results / %d errors, want %d", workers, len(out), len(errs), n)
		}
		for i := 0; i < n; i++ {
			if !ran[i] {
				t.Fatalf("workers=%d: job %d never ran despite earlier failures", workers, i)
			}
			switch {
			case i%5 == 0:
				var pe *PanicError
				if !errors.As(errs[i], &pe) || pe.Index != i {
					t.Fatalf("workers=%d: errs[%d] = %v, want *PanicError for index %d", workers, i, errs[i], i)
				}
			case i%5 == 1:
				if errs[i] == nil || errs[i].Error() != fmt.Sprintf("err-%d", i) {
					t.Fatalf("workers=%d: errs[%d] = %v, want err-%d", workers, i, errs[i], i)
				}
			default:
				if errs[i] != nil {
					t.Fatalf("workers=%d: errs[%d] = %v, want nil", workers, i, errs[i])
				}
				if out[i] != fmt.Sprintf("ok-%d", i) {
					t.Fatalf("workers=%d: out[%d] = %q, want ok-%d", workers, i, out[i], i)
				}
			}
		}
	}
}

func TestMapAllEmpty(t *testing.T) {
	out, errs := MapAll(4, 0, func(i int) (int, error) { return i, nil })
	if len(out) != 0 || len(errs) != 0 {
		t.Fatalf("empty MapAll returned %d results / %d errors", len(out), len(errs))
	}
}
