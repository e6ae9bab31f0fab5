"""Twin of ``two_ranks.loop``: one array at two ranks, across
statements (``a``) and within one (``c``)."""


def kernel(a, c, n):
    for i in range(1, n + 1):
        a[i] = a[i - 1]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            a[i][j] = a[i][j - 1]
            c[i] = c[i - 1][j]
