"""Parsing, printing, static checks and tree edits for the toy language."""
