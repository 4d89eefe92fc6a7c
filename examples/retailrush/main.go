// Retailrush models the scenario that motivates dynamic physical design:
// a retail database whose workload changes with the time of day.
// Mornings are browse-heavy (lookups by product), lunchtime is a
// checkout spike (lookups by customer and order status), and evenings
// mix analytics (price-range scans) with browsing.
//
// The workload trace covers one business day; we know the day has two
// major shifts (morning→lunch, lunch→evening), so we ask for k = 2 —
// exactly the paper's recipe for choosing k from domain knowledge of
// time-of-day phenomena. Candidate indexes are derived automatically
// from the trace.
//
// Run with:
//
//	go run ./examples/retailrush
package main

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"strings"

	"dyndesign"
)

const orders = 60000

func main() {
	db := dyndesign.NewDatabase()
	db.MustExec(`CREATE TABLE orders (id INT, customer INT, product INT, status INT, price INT)`)

	rng := rand.New(rand.NewSource(42))
	var sb strings.Builder
	for i := 0; i < orders; i += 500 {
		sb.Reset()
		sb.WriteString("INSERT INTO orders VALUES ")
		for j := 0; j < 500; j++ {
			if j > 0 {
				sb.WriteString(", ")
			}
			fmt.Fprintf(&sb, "(%d, %d, %d, %d, %d)",
				i+j, rng.Intn(8000), rng.Intn(5000), rng.Intn(6), rng.Intn(50000))
		}
		db.MustExec(sb.String())
	}
	if err := db.Analyze("orders"); err != nil {
		log.Fatal(err)
	}

	w := businessDay(rng)
	fmt.Printf("one business day: %d statements (%v)\n\n", w.Len(), labelsOf(w))

	// Derive candidate indexes from the trace itself.
	structures := dyndesign.CandidatesFromWorkload(w, "orders", dyndesign.CandidateOptions{
		MaxWidth: 2,
		Limit:    8,
	})
	fmt.Println("candidate structures derived from the trace:")
	for _, def := range structures {
		fmt.Printf("  %s\n", def.Name())
	}
	fmt.Println()

	adv, err := dyndesign.NewAdvisor(db, dyndesign.DesignSpace{
		Table:      "orders",
		Structures: structures,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two anticipated major shifts -> k = 2, and a storage budget tight
	// enough (~1.5 indexes) that no single static design can serve the
	// whole day — the advisor has to use its changes.
	rec, err := adv.Recommend(w, dyndesign.Options{
		K:          2,
		SpaceBound: 450,
	})
	if err != nil {
		log.Fatal(err)
	}
	rec.Render(os.Stdout)

	// Sanity check: replay the day under the recommendation.
	report, err := dyndesign.Replay(db, w, rec, rec.PerStatement())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nmeasured: %d pages for queries, %d for index changes (%d changes)\n",
		report.QueryPages, report.TransitionPages, report.Changes)
}

// businessDay builds the day's trace from three phase mixes.
func businessDay(rng *rand.Rand) *dyndesign.Workload {
	w := &dyndesign.Workload{Name: "business-day"}
	gen := func(label string, n int, make func() string) {
		for i := 0; i < n; i++ {
			stmt, err := dyndesign.NewStatement(make())
			if err != nil {
				log.Fatal(err)
			}
			w.Append(label, stmt)
		}
	}
	product := func() string {
		return fmt.Sprintf("SELECT id, price FROM orders WHERE product = %d", rng.Intn(5000))
	}
	customer := func() string {
		return fmt.Sprintf("SELECT id, status FROM orders WHERE customer = %d", rng.Intn(8000))
	}
	status := func() string {
		return fmt.Sprintf("SELECT id FROM orders WHERE status = %d AND customer = %d", rng.Intn(6), rng.Intn(8000))
	}
	analytics := func() string {
		lo := rng.Intn(45000)
		return fmt.Sprintf("SELECT price FROM orders WHERE price >= %d AND price < %d", lo, lo+500)
	}

	// Morning: 80% product browse, 20% customer lookups.
	gen("morning", 600, func() string {
		if rng.Float64() < 0.8 {
			return product()
		}
		return customer()
	})
	// Lunch rush: 60% customer, 30% status, 10% product.
	gen("lunch", 600, func() string {
		switch u := rng.Float64(); {
		case u < 0.6:
			return customer()
		case u < 0.9:
			return status()
		default:
			return product()
		}
	})
	// Evening: 50% analytics, 50% product.
	gen("evening", 600, func() string {
		if rng.Float64() < 0.5 {
			return analytics()
		}
		return product()
	})
	return w
}

func labelsOf(w *dyndesign.Workload) []string {
	var out []string
	for _, b := range w.BlockLabels() {
		out = append(out, fmt.Sprintf("%s×%d", b.Label, b.Count))
	}
	return out
}
