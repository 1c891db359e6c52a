"""Small shared utilities: id generation, time units, event bus, text canvas."""
