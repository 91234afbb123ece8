"""Test harnesses for the service tier. Production code never imports this
package; tests and the seeded soak (``python -m repro.testing.chaos soak``)
do."""
