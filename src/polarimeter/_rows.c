/* Graph-file rows for polarimeter.io's writers, loaded through ctypes.

   A row is one cell from each of `cols` columns, joined by '\t' and ended
   by '\n'. Column c holds a text table and an index array: the table's
   entries are joined in text[c], each followed by one byte (io._table
   follows each with '\n'), so entry k and the byte after it span
   start[c][k] .. start[c][k + 1] - 1; row r takes entry index[c][r]. The
   caller sizes `out` from `start` to the rows' exact byte count and checks
   the count returned.

   Build (one library with _louvain.c and _archive.c, as _native.py
   builds it):
   cc -O2 -ffp-contract=off -shared -fPIC -o LIB _louvain.c _archive.c _rows.c -lm
*/

#include <stdint.h>
#include <string.h>

/* Write rows 0 .. rows - 1 into out; the bytes written, or -1 as soon as
   the next cell would pass `capacity` bytes. */
int64_t write_rows(int64_t rows, int64_t cols, const char *const *text,
                   const int64_t *const *start, const int64_t *const *index,
                   char *out, int64_t capacity)
{
    int64_t size = 0;
    for (int64_t r = 0; r < rows; r++) {
        for (int64_t c = 0; c < cols; c++) {
            int64_t k = index[c][r];
            int64_t n = start[c][k + 1] - start[c][k]; /* the cell and its end */
            if (n < 1 || n > capacity - size)
                return -1;
            memcpy(out + size, text[c] + start[c][k], (size_t)(n - 1));
            size += n;
            out[size - 1] = c + 1 < cols ? '\t' : '\n';
        }
    }
    return size;
}
