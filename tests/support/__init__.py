"""Test-only helpers: oracles the suite compares the package against."""
