/* Stance-archive tally for polarimeter.stance, loaded through ctypes.

   It reads an archive fed to it in blocks of whole lines and tallies it as
   stance._tally tallies the rows of stance._iter_stance_rows, as long as
   every line is blank or a plain record. At the first other line it gives
   up, and the caller reads the whole archive with the Python row loop,
   which decides, raises and warns for every line.

   A plain record is one line (ended by '\n'):

   - ' ', '\t' and '\r' may stand before, after and between the tokens;
   - it holds one JSON object whose keys are exactly "tweet_id", "author",
     "stance" and "retweeters", each once, in any order;
   - the values are strings, except "retweeters", an array of strings;
   - a string is printable ASCII (0x20-0x7e) with no '\\' and no '#', so
     JSON reads it as its own bytes and the graph files can hold it;
   - "tweet_id" is not empty and no earlier record has it;
   - "author" and each retweeter are not empty and start and end with no
     space, so stripping leaves them as they are;
   - "stance" is "favor", "against" or "neutral".

   Users are numbered in order of first appearance, the author before the
   retweeters, left to right, as stance._tally numbers them. Every id is
   copied into the kernel's own byte arena, so a block can go once it is
   fed.

   Build (one library with _louvain.c, as _native.py builds it):
   cc -O2 -ffp-contract=off -shared -fPIC -o LIB _louvain.c _archive.c -lm
*/

#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* ---- growable arrays ---------------------------------------------------- */

/* Make room for `need` items of `item` bytes at *p; 0, or -1 when out of
   memory (*p is then as it was). */
static int grow(void **p, int64_t *cap, int64_t need, size_t item)
{
    if (need <= *cap)
        return 0;
    int64_t cap2 = *cap < 64 ? 64 : 2 * *cap;
    if (cap2 < need)
        cap2 = need;
    void *q = realloc(*p, (size_t)cap2 * item);
    if (!q)
        return -1;
    *p = q;
    *cap = cap2;
    return 0;
}

/* ---- interned ids ------------------------------------------------------- */

typedef struct {
    const char *s;
    int64_t n;
} span;

/* Distinct ids numbered in order of addition. Their bytes are joined in
   `bytes`, each followed by '\n'; id k spans start[k] .. start[k + 1] - 1.
   A slot of the table holds an id's 32-bit hash above its number + 1, or 0,
   so a probe reads the id's bytes only when the hashes agree. */
typedef struct {
    char *bytes;
    int64_t size, bytes_cap;
    int64_t *start;
    int64_t start_cap;
    int64_t count;
    uint64_t *table;
    uint32_t mask; /* slots - 1 */
} idset;

static uint32_t hash_bytes(span id)
{
    uint32_t h = 2166136261U; /* FNV-1a */
    for (int64_t i = 0; i < id.n; i++)
        h = (h ^ (unsigned char)id.s[i]) * 16777619U;
    return h ^ (h >> 15);
}

/* Double the table (or make the first one) and place every id again. */
static int rehash(idset *set)
{
    uint64_t slots = set->table ? 2 * ((uint64_t)set->mask + 1) : 1024;
    if (slots > (uint64_t)UINT32_MAX + 1)
        return -1;
    uint64_t *table = calloc((size_t)slots, sizeof *table);
    if (!table)
        return -1;
    uint32_t mask = (uint32_t)(slots - 1);
    for (uint64_t i = 0; set->table && i <= set->mask; i++) {
        uint64_t entry = set->table[i];
        if (!entry)
            continue;
        uint32_t j = (uint32_t)(entry >> 32) & mask;
        while (table[j])
            j = (j + 1) & mask;
        table[j] = entry;
    }
    free(set->table);
    set->table = table;
    set->mask = mask;
    return 0;
}

/* The number of `id`, adding it when it is new (*added is then 1); -1 when
   out of memory. */
static int64_t intern(idset *set, span id, int *added)
{
    if (2 * (set->count + 1) > (int64_t)set->mask + 1 && rehash(set))
        return -1;
    uint32_t h = hash_bytes(id);
    uint32_t i = h & set->mask;
    for (uint64_t entry; (entry = set->table[i]); i = (i + 1) & set->mask) {
        int64_t k = (int64_t)(uint32_t)entry - 1;
        if ((uint32_t)(entry >> 32) == h && set->start[k + 1] - set->start[k] - 1 == id.n
            && !memcmp(set->bytes + set->start[k], id.s, (size_t)id.n)) {
            *added = 0;
            return k;
        }
    }
    if (grow((void **)&set->bytes, &set->bytes_cap, set->size + id.n + 1, 1)
        || grow((void **)&set->start, &set->start_cap, set->count + 2, sizeof *set->start))
        return -1;
    memcpy(set->bytes + set->size, id.s, (size_t)id.n);
    set->size += id.n;
    set->bytes[set->size++] = '\n';
    set->start[0] = 0;
    set->start[++set->count] = set->size;
    set->table[i] = (uint64_t)h << 32 | (uint64_t)set->count;
    *added = 1;
    return set->count - 1;
}

static void idset_free(idset *set)
{
    free(set->bytes);
    free(set->start);
    free(set->table);
}

/* ---- the tally ---------------------------------------------------------- */

typedef struct {
    idset tweets, users;
    int64_t *counts; /* [favor, against, neutral] per user */
    int64_t counts_cap;
    int64_t *ends; /* (author, retweeter) pairs, flattened */
    int64_t nends, ends_cap;
    int64_t self_retweets;
    span *retweeters; /* the line being read */
    int64_t retweeters_cap;
} archive;

enum { TWEET_ID = 1, AUTHOR = 2, STANCE = 4, RETWEETERS = 8, ALL_KEYS = 15 };

static int is_equal(span a, const char *text)
{
    return a.n == (int64_t)strlen(text) && !memcmp(a.s, text, (size_t)a.n);
}

static int key_of(span key)
{
    return is_equal(key, "tweet_id")     ? TWEET_ID
           : is_equal(key, "author")     ? AUTHOR
           : is_equal(key, "stance")     ? STANCE
           : is_equal(key, "retweeters") ? RETWEETERS
                                         : 0;
}

/* The slot of a stance, in stance._SLOTS order, or -1. */
static int slot_of(span stance)
{
    return is_equal(stance, "favor")     ? 0
           : is_equal(stance, "against") ? 1
           : is_equal(stance, "neutral") ? 2
                                         : -1;
}

/* The first position from p on that is not ' ', '\t' or '\r'; NULL for
   NULL, so that it can follow a failed read. */
static const char *skip_space(const char *p, const char *end)
{
    if (!p)
        return NULL;
    while (p < end && (*p == ' ' || *p == '\t' || *p == '\r'))
        p++;
    return p;
}

/* A plain string at p: its text in *out and the position after its closing
   quote, or NULL. */
static const char *plain_string(const char *p, const char *end, span *out)
{
    if (!p || p == end || *p != '"')
        return NULL;
    const char *q = ++p;
    for (; q < end && *q != '"'; q++) {
        unsigned char c = (unsigned char)*q;
        if (c < 0x20 || c > 0x7e || c == '\\' || c == '#')
            return NULL;
    }
    if (q == end)
        return NULL;
    out->s = p;
    out->n = q - p;
    return q + 1;
}

/* Not empty, and no space to strip. */
static int is_user_id(span id)
{
    return id.n > 0 && id.s[0] != ' ' && id.s[id.n - 1] != ' ';
}

/* Count one stance item for user u, which is new when u is the last user. */
static int count_item(archive *a, int64_t u, int slot)
{
    if (3 * (u + 1) > a->counts_cap) {
        int64_t old = a->counts_cap;
        if (grow((void **)&a->counts, &a->counts_cap, 3 * (u + 1), sizeof *a->counts))
            return -1;
        memset(a->counts + old, 0, (size_t)(a->counts_cap - old) * sizeof *a->counts);
    }
    a->counts[3 * u + slot]++;
    return 0;
}

/* Tally the line p .. end (its '\n' excluded): 1 for a blank or plain line,
   0 for any other, -1 when out of memory. The whole line is read before
   anything is interned. */
static int tally_line(archive *a, const char *p, const char *end)
{
    span key, tweet_id = {0}, author = {0}, stance = {0};
    int64_t nretweeters = 0;
    int keys = 0;

    p = skip_space(p, end);
    if (p == end)
        return 1;
    if (*p++ != '{')
        return 0;
    for (;;) {
        p = skip_space(plain_string(skip_space(p, end), end, &key), end);
        int field = p ? key_of(key) : 0;
        if (!field || (keys & field) || p == end || *p++ != ':')
            return 0;
        keys |= field;
        p = skip_space(p, end);
        if (field == RETWEETERS) {
            if (p == end || *p++ != '[')
                return 0;
            p = skip_space(p, end);
            if (p < end && *p == ']')
                p++;
            else
                for (;;) {
                    span id;
                    p = skip_space(plain_string(p, end, &id), end);
                    if (!p || !is_user_id(id) || p == end)
                        return 0;
                    if (grow((void **)&a->retweeters, &a->retweeters_cap, nretweeters + 1,
                             sizeof *a->retweeters))
                        return -1;
                    a->retweeters[nretweeters++] = id;
                    if (*p == ']') {
                        p++;
                        break;
                    }
                    if (*p++ != ',')
                        return 0;
                    p = skip_space(p, end);
                }
        } else {
            p = plain_string(p, end, field == TWEET_ID ? &tweet_id
                                     : field == AUTHOR ? &author
                                                       : &stance);
            if (!p)
                return 0;
        }
        p = skip_space(p, end);
        if (p == end)
            return 0;
        if (*p == '}')
            break;
        if (*p++ != ',')
            return 0;
    }
    int slot = slot_of(stance);
    if (skip_space(p + 1, end) != end || keys != ALL_KEYS || !tweet_id.n
        || !is_user_id(author) || slot < 0)
        return 0;

    int added;
    if (intern(&a->tweets, tweet_id, &added) < 0)
        return -1;
    if (!added)
        return 0; /* a repeated tweet_id */
    int64_t by = intern(&a->users, author, &added);
    if (by < 0 || count_item(a, by, slot))
        return -1;
    for (int64_t r = 0; r < nretweeters; r++) {
        int64_t u = intern(&a->users, a->retweeters[r], &added);
        if (u < 0 || count_item(a, u, slot))
            return -1;
        if (u == by) {
            a->self_retweets++;
            continue;
        }
        if (grow((void **)&a->ends, &a->ends_cap, a->nends + 2, sizeof *a->ends))
            return -1;
        a->ends[a->nends++] = by;
        a->ends[a->nends++] = u;
    }
    return 1;
}

/* ---- the ctypes entry points -------------------------------------------- */

/* A new, empty tally, or NULL when out of memory. */
archive *archive_new(void)
{
    return calloc(1, sizeof(archive));
}

void archive_free(archive *a)
{
    if (!a)
        return;
    idset_free(&a->tweets);
    idset_free(&a->users);
    free(a->counts);
    free(a->ends);
    free(a->retweeters);
    free(a);
}

/* Tally a block of whole lines, the last of which may lack its '\n': 1 when
   every line is blank or plain, 0 at the first that is not (the tally is
   then to be dropped), -1 when out of memory. */
int64_t archive_feed(archive *a, const char *block, int64_t size)
{
    const char *p = block, *end = block + size;
    while (p < end) {
        const char *newline = memchr(p, '\n', (size_t)(end - p));
        const char *line_end = newline ? newline : end;
        int status = tally_line(a, p, line_end);
        if (status != 1)
            return status;
        p = line_end + 1;
    }
    return 1;
}

/* sizes = [users, bytes of their joined ids, ends entries, self-retweets] */
void archive_sizes(const archive *a, int64_t *sizes)
{
    sizes[0] = a->users.count;
    sizes[1] = a->users.size;
    sizes[2] = a->nends;
    sizes[3] = a->self_retweets;
}

/* Copy out the users' ids, each followed by '\n', their counts and the
   ends, into arrays of the sizes archive_sizes gives. */
void archive_result(const archive *a, char *ids, int64_t *counts, int64_t *ends)
{
    if (a->users.size)
        memcpy(ids, a->users.bytes, (size_t)a->users.size);
    if (a->users.count)
        memcpy(counts, a->counts, (size_t)(3 * a->users.count) * sizeof *counts);
    if (a->nends)
        memcpy(ends, a->ends, (size_t)a->nends * sizeof *ends);
}
