// Package determ seeds deliberate determinism violations; the golden
// test configures it as a datapath package.
package determ

import (
	"math/rand" // want `import of math/rand in datapath package determ`
	"os"
	"time"
)

func Stamp() int64 {
	return time.Now().UnixNano() // want `wall-clock read time.Now in datapath package determ`
}

func Env() string {
	return os.Getenv("HOME") // want `environment lookup os.Getenv in datapath package determ`
}

func Roll() int { return rand.Intn(6) }

func Sum(m map[string]int) int {
	total := 0
	for _, v := range m { // want `map iteration in datapath package determ`
		total += v
	}
	return total
}
