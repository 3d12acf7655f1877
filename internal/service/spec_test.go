package service

import "testing"

// TestDefaultSuiteHashStable pins the default suite spec's content
// address, so spec-surface changes (dropped fields, new figure names)
// cannot silently move cache keys that disks and fleet peers hold.
func TestDefaultSuiteHashStable(t *testing.T) {
	n, err := JobSpec{Kind: KindSuite}.normalize()
	if err != nil {
		t.Fatal(err)
	}
	const want = "15c16bbdc36b326ccf6d4477607c6963963d4ad14735f3178eeef8f11b9fe184"
	if got := n.hash(); got != want {
		t.Fatalf("default suite hash = %s, want %s", got, want)
	}
}
