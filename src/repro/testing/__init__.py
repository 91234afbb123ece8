"""Test harnesses for the service tier. Production code never imports this
package; tests and the ``repro-compilergym chaos-soak`` command do."""
