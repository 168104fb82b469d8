package server

import (
	"sync"
	"time"
)

// tokenBucket is a lazily refilled token bucket. Tokens accrue continuously
// at rate per second up to burst; each admitted request spends one. There
// is no background filler goroutine — the elapsed time since the last
// check mints the tokens — so an idle connection costs nothing.
//
// Each connection gets its own bucket (Config.ConnRate), which is the
// admission-control shape the engine wants: one abusive tenant pipelining
// as fast as the socket allows is clipped at its own bucket and cannot
// monopolise the engine's batch path, while well-behaved connections never
// notice the limiter.
type tokenBucket struct {
	mu     sync.Mutex
	rate   float64 // tokens per second
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time // test hook
}

func newTokenBucket(rate float64, burst int) *tokenBucket {
	b := float64(burst)
	if b < 1 {
		b = rate
		if b < 1 {
			b = 1
		}
	}
	tb := &tokenBucket{rate: rate, burst: b, tokens: b, now: time.Now}
	tb.last = tb.now()
	return tb
}

// allow spends one token if available, reporting whether the request is
// admitted.
func (tb *tokenBucket) allow() bool {
	tb.mu.Lock()
	defer tb.mu.Unlock()
	now := tb.now()
	tb.tokens += now.Sub(tb.last).Seconds() * tb.rate
	tb.last = now
	if tb.tokens > tb.burst {
		tb.tokens = tb.burst
	}
	if tb.tokens < 1 {
		return false
	}
	tb.tokens--
	return true
}
