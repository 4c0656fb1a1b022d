"""Convex one-page drawings: crossing analysis, recognition, separators.

Import each name from the module that defines it, such as
`from okplanar.maximal import saturate`; `import okplanar` loads none of them.
"""

__version__ = "0.1.0"

# the engines behind recognize; here so the command line can offer them
# without importing the SAT layer
ENGINES = ("sat", "brute")
