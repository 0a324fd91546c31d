package eval

import (
	"context"
	"runtime"
)

// Runner fans one prepared task over a stream of inputs with a
// bounded worker pool, yielding results in submission order. It is the
// execution half of the compile-once/run-many contract: the task
// (typically a CompiledQuery or QuerySet run) is assumed safe for
// concurrent use; each input is processed exactly once.
type Runner struct {
	// Workers bounds concurrent task invocations; ≤ 0 means
	// runtime.GOMAXPROCS(0).
	Workers int
}

func (r Runner) workers() int {
	if r.Workers > 0 {
		return r.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// Result is one input's outcome. Index is the input's position in the
// input order; Err is f's error, or the context's for an input that
// was accepted but not processed before cancellation.
type Result[R any] struct {
	Index int
	Value R
	Err   error
}

// Map runs f over a stream of inputs and yields results on the
// returned channel in input order, with backpressure: at most
// r.Workers inputs are in flight and at most r.Workers finished
// results are buffered ahead of the consumer. A failing input marks
// only its own result. The output channel is closed after the input
// channel closes and every accepted input has been yielded. On
// context cancellation the already-accepted inputs are still yielded
// (unprocessed ones carry ctx.Err()) and the channel is closed without
// waiting for in to close — the consumer must drain the returned
// channel, and the producer must guard its sends with the same ctx (or
// close in), else its own goroutine blocks on the abandoned channel.
func Map[T, R any](ctx context.Context, r Runner, in <-chan T, f func(context.Context, T) (R, error)) <-chan Result[R] {
	workers := r.workers()
	out := make(chan Result[R])
	type job struct {
		index int
		item  T
		res   chan Result[R]
	}
	jobs := make(chan job)
	// pending preserves submission order; its capacity bounds how far
	// the dispatcher can run ahead of the consumer.
	pending := make(chan chan Result[R], workers)

	for w := 0; w < workers; w++ {
		go func() {
			for j := range jobs {
				res := Result[R]{Index: j.index}
				if err := ctx.Err(); err != nil {
					res.Err = err
				} else {
					res.Value, res.Err = f(ctx, j.item)
				}
				j.res <- res
			}
		}()
	}

	// Dispatcher: assign indices and per-input result slots.
	go func() {
		defer close(jobs)
		defer close(pending)
		i := 0
		for {
			select {
			case <-ctx.Done():
				// Stop accepting. Returning closes pending, so the
				// emitter yields the already-accepted inputs and closes
				// the output — the consumer never hangs, even if the
				// producer abandons in without closing it. Producers
				// must guard their sends with the same ctx (or close
				// in); an unguarded sender blocks in its own goroutine,
				// which is its bug to fix — draining it here would leak
				// a receiver forever instead.
				return
			case item, ok := <-in:
				if !ok {
					return
				}
				slot := make(chan Result[R], 1)
				pending <- slot
				jobs <- job{index: i, item: item, res: slot}
				i++
			}
		}
	}()

	// Emitter: forward per-input slots in order.
	go func() {
		defer close(out)
		for slot := range pending {
			out <- <-slot
		}
	}()
	return out
}

// MapAll is Map over a slice: it returns one Result per input, in
// input order. A canceled context marks the inputs not yet processed
// with ctx.Err() without invoking f on them.
func MapAll[T, R any](ctx context.Context, r Runner, in []T, f func(context.Context, T) (R, error)) []Result[R] {
	src := make(chan T)
	go func() {
		defer close(src)
		for _, x := range in {
			select {
			case src <- x:
			case <-ctx.Done():
				return
			}
		}
	}()
	out := make([]Result[R], len(in))
	n := 0
	for res := range Map(ctx, r, src, f) {
		out[n] = res
		n++
	}
	// Map stops accepting only on cancellation.
	for ; n < len(out); n++ {
		out[n] = Result[R]{Index: n, Err: ctx.Err()}
	}
	return out
}
