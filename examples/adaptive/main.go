// Adaptive: the §2.3 sketch made real. When the dynamics of the workload
// are unknown, the shield tracks counts under several decay rates at once
// and serves delays from whichever tracker best predicts live traffic.
// This demo feeds a static phase (no-decay wins) and then a churning
// phase (decay wins) and prints the selector's choice as it flips.
package main

import (
	"fmt"
	"log"
	"os"
	"time"

	delaydefense "repro"
)

func main() {
	dir, err := os.MkdirTemp("", "delaydefense-adaptive-*")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	const n = 2000
	db, err := delaydefense.Open(dir, delaydefense.Config{
		N:     n,
		Alpha: 1.0,
		Beta:  2.0,
		Cap:   time.Second,
		Clock: delaydefense.NewSimulatedClock(time.Now()),
		// Track under no decay and mild decay simultaneously.
		AdaptiveDecayRates: []float64{1.0, 1.05},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	if _, err := db.Exec(`CREATE TABLE articles (id INT PRIMARY KEY, title TEXT)`); err != nil {
		log.Fatal(err)
	}
	for lo := 0; lo < n; lo += 500 {
		stmt := "INSERT INTO articles VALUES "
		for i := lo; i < lo+500; i++ {
			if i > lo {
				stmt += ", "
			}
			stmt += fmt.Sprintf("(%d, 'article %d')", i, i)
		}
		if _, err := db.Exec(stmt); err != nil {
			log.Fatal(err)
		}
	}

	shield := db.Shield()
	query := func(id int) {
		if _, _, err := db.Query("reader", fmt.Sprintf(`SELECT * FROM articles WHERE id = %d`, id)); err != nil {
			log.Fatal(err)
		}
	}

	fmt.Println("phase 1: static workload — a fixed set of evergreen articles")
	for i := 0; i < 4000; i++ {
		query((i * i) % 7)
	}
	rate := shield.ActiveDecayRate()
	fmt.Printf("  selector chose decay rate %.2f (full history wins on static data)\n\n", rate)
	if rate != 1.0 { // `make examples` fails when the demo stops showing it
		log.Fatal("the selector left full history on static data")
	}

	fmt.Println("phase 2: breaking news — popularity churns every few hundred requests")
	for phase := 0; phase < 30; phase++ {
		hot := 100 + (phase*61)%1800
		for i := 0; i < 300; i++ {
			query(hot + i%3)
		}
	}
	rate = shield.ActiveDecayRate()
	fmt.Printf("  selector chose decay rate %.2f (forgetting wins once the workload shifts)\n\n", rate)
	if rate != 1.05 {
		log.Fatal("the selector kept full history on churning data")
	}

	ids, counts := shield.TopK(3)
	fmt.Println("current top articles per the active tracker:")
	for i := range ids {
		fmt.Printf("  #%d  article %4d  (decayed count %.1f)\n", i+1, ids[i], counts[i])
	}
}
