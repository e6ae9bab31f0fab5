/* Twin of two_ranks.loop: one array at two ranks, across statements
   (a) and within one (c). */

void kernel(int n) {
    int i, j;
    for (i = 1; i <= n; i++)
        a[i] = a[i - 1];
    for (i = 1; i <= n; i++)
        for (j = 1; j <= n; j++) {
            a[i][j] = a[i][j - 1];
            c[i] = c[i - 1][j];
        }
}
