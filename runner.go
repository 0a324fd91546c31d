package mdlog

// One fan-out for every run shape — the serving shape of "A Formal
// Comparison of Visual Web Wrapper Generators": one wrapper compiled
// once, a stream of pages pushed through it. The task is any function
// of one input (a tree, an io.Reader parsed inside the pool, a batch
// entry), so a query, a wrapper or a whole QuerySet fans out the same
// way. Results always come back in input order, so downstream
// consumers need no re-sequencing.

import (
	"context"

	"mdlog/internal/eval"
)

// Runner is a bounded worker pool for Map and MapAll. The zero value
// uses runtime.GOMAXPROCS(0) workers.
type Runner = eval.Runner

// Result is one input's outcome from Map or MapAll: its position in
// the input order, f's value, and f's error (or the context's, for an
// input accepted but not processed before cancellation).
type Result[R any] = eval.Result[R]

// Map runs f over a stream of inputs with r's worker pool and yields
// the results in input order, with backpressure bounded by the worker
// count. A failing input marks only its own result. The returned
// channel closes after in closes (or ctx is canceled) and every
// accepted input has been yielded; a producer must guard its sends
// with the same ctx.
func Map[T, R any](ctx context.Context, r Runner, in <-chan T, f func(context.Context, T) (R, error)) <-chan Result[R] {
	return eval.Map(ctx, r, in, f)
}

// MapAll is Map over a slice: one Result per input, in input order. A
// canceled context marks the inputs not yet processed with ctx.Err().
func MapAll[T, R any](ctx context.Context, r Runner, in []T, f func(context.Context, T) (R, error)) []Result[R] {
	return eval.MapAll(ctx, r, in, f)
}
