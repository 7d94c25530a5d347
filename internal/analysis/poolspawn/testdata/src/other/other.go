// Fixture for the poolspawn analyzer: a package no earlier governed list
// named is under the rule like every other.
package other

func spawn(fn func()) {
	go fn() // want "raw go statement"
}
