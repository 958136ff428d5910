"""Small shared helpers: validation, formatting, unit handling."""
