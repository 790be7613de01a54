/* The one-pass kernel's k = 1 rows in one compiled loop (see onlinelp/native.py).

   onepass_rows steps every row of a batch over every instance, instance by
   instance, with bit for bit the numpy kernel's arithmetic in
   algorithms.run_one_pass: the decision dot and the squared price norm are
   in-order sums of separately rounded products, starting from 0.0, and every
   other operation is one IEEE operation in numpy's order, built with
   -ffp-contract=off so that the compiler fuses none of them.  The same sums
   give the same bits on any host, whatever its BLAS.

   Rows [0, first_gated) are plain, rows [first_gated, first_track) realize
   an accept only while it fits (SFA's gate), and rows [first_track, rows)
   target the remaining budget rate (SNA).  Instance j has lengths[j] steps;
   its reward t is rewards[j][t * reward_strides[j]], coordinate i of its
   usage vector t is columns[j][t * column_strides[2j] + i * column_strides[2j + 1]],
   its capacity is capacity[j * m + i], and row r's step size at step t is
   gammas[r][t * gamma_strides[2r] + j * gamma_strides[2r + 1]] (strides in
   elements).  The outputs are zeroed by the caller: decided
   (n_inst, rows, n_max) holds every row's tentative accepts, realized
   (n_inst, first_track - first_gated, n_max) the gated rows' realized ones,
   prices (n_inst, rows, m) the final prices and peak (n_inst, rows) the
   largest squared price norm. */
#include <stdint.h>

void onepass_rows(int64_t n_inst, int64_t rows, int64_t first_gated, int64_t first_track,
                  int64_t m, int64_t n_max, const int64_t *lengths,
                  const double *const *rewards, const int64_t *reward_strides,
                  const double *const *columns, const int64_t *column_strides,
                  const double *capacity,
                  const double *const *gammas, const int64_t *gamma_strides,
                  uint8_t *decided, uint8_t *realized, double *prices, double *peak)
{
    const int64_t n_gated = first_track - first_gated, n_track = rows - first_track;
    double u[m], d[m], budget[n_track * m + 1], used[n_gated * m + 1];
    for (int64_t j = 0; j < n_inst; j++) {
        const int64_t n = lengths[j], rs = reward_strides[j];
        const int64_t ts = column_strides[2 * j], is = column_strides[2 * j + 1];
        const double *r = rewards[j], *a = columns[j], *cap = capacity + j * m;
        double *p = prices + j * rows * m, *top = peak + j * rows;
        uint8_t *dec = decided + j * rows * n_max, *real = realized + j * n_gated * n_max;
        for (int64_t i = 0; i < m; i++)
            d[i] = cap[i] / (double)n;
        for (int64_t i = 0; i < n_track * m; i++)
            budget[i] = cap[i % m];
        for (int64_t i = 0; i < n_gated * m; i++)
            used[i] = 0.0;
        for (int64_t t = 0; t < n; t++) {
            const double reward = r[t * rs];
            for (int64_t i = 0; i < m; i++)
                u[i] = a[t * ts + i * is];
            /* the steps left after step t, at least 1 */
            const double left = n - t - 1 > 1 ? (double)(n - t - 1) : 1.0;
            for (int64_t row = 0; row < rows; row++) {
                double *q = p + row * m;
                double score = 0.0;
                for (int64_t i = 0; i < m; i++)
                    score += u[i] * q[i];
                const int accept = reward > score;
                const double taken = accept ? 1.0 : 0.0;
                dec[row * n_max + t] = (uint8_t)accept;
                double g = gammas[row][t * gamma_strides[2 * row] + j * gamma_strides[2 * row + 1]];
                /* a budget-tracking row targets its remaining budget rate, and
                   its final step is a zero step */
                double *b = row >= first_track ? budget + (row - first_track) * m : 0;
                if (b && t == n - 1)
                    g = 0.0;
                double norm = 0.0;
                for (int64_t i = 0; i < m; i++) {
                    double step = taken * u[i];
                    if (b)
                        b[i] -= step;
                    step -= b ? b[i] / left : d[i];
                    step *= g;
                    const double after = q[i] + step;
                    /* np.maximum(after, 0.0), NaN and -0.0 included */
                    q[i] = after < 0.0 ? 0.0 : after;
                    norm += q[i] * q[i];
                }
                if (norm > top[row] || norm != norm)
                    top[row] = norm;
                if (accept && row >= first_gated && row < first_track) {
                    double *held = used + (row - first_gated) * m;
                    int fits = 1;
                    for (int64_t i = 0; i < m; i++)
                        fits &= held[i] + u[i] <= cap[i];
                    if (fits) {
                        for (int64_t i = 0; i < m; i++)
                            held[i] += u[i];
                        real[(row - first_gated) * n_max + t] = 1;
                    }
                }
            }
        }
    }
}
