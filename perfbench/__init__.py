"""End-to-end online train→publish→serve benchmark (see README.md)."""
